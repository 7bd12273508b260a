package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/dist"
	"repro/internal/serve"
)

// provenance stamps every result with where and on what it was measured.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// Commit is the git commit the run script found, or "unknown" outside a
	// git checkout; SourceSHA256 identifies the measured sources either way.
	Commit       string      `json:"commit"`
	SourceSHA256 string      `json:"source_sha256"`
	Serve        serveConfig `json:"serve_config"`
}

// serveConfig is serve.Config with the defaults serve.New applies made
// explicit.
type serveConfig struct {
	Universe    int    `json:"universe"`
	Retain      int    `json:"retain"`
	Engine      string `json:"engine"`
	Parallelism int    `json:"parallelism"`
	Workers     int    `json:"workers"`
	BatchWindow string `json:"batch_window"`
	Immediate   bool   `json:"immediate"`
	TenantLimit int    `json:"tenant_limit"`
	MaxSessions int    `json:"max_sessions"`
}

// servedConfig is the daemon configuration both served workloads run:
// convserve's defaults.
var servedConfig = serve.Config{}

func effectiveServeConfig(c serve.Config) serveConfig {
	window := c.BatchWindow
	if window <= 0 {
		window = dist.DefaultBatchWindow
	}
	if c.Immediate {
		window = 0
	}
	sessions := c.MaxSessions
	if sessions <= 0 {
		sessions = 8
	}
	return serveConfig{
		Universe: c.Universe, Retain: c.Retain, Engine: c.Engine.String(),
		Parallelism: c.Parallelism, Workers: c.Workers, BatchWindow: window.String(),
		Immediate: c.Immediate, TenantLimit: c.TenantLimit, MaxSessions: sessions,
	}
}

func newProvenance(rc *runConfig) provenance {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return provenance{
		Workload:     rc.Workload,
		Seed:         rc.Seed,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       commit,
		SourceSHA256: sourceDigest("."),
		Serve:        effectiveServeConfig(servedConfig),
	}
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root (skipping
// hidden directories such as the build cache), so two results can be tied
// to the same code without git.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		rel, _ := filepath.Rel(root, path) // path is under root by construction
		io.WriteString(h, rel+"\x00")
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
