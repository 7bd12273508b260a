package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
)

// served is one convserve-equivalent daemon on a loopback listener plus the
// client the workload's callers share. Untraced runs mount serve's own
// handler unchanged; traced runs mount a wrapper that, while tracing is on,
// answers /query itself around a span of Server.Query (see handleQuery).
type served struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	tr     *tracer // nil when untraced
	// corrupt is the self-test's fault injection (see runConfig).
	corrupt func([]byte) []byte

	tracing atomic.Bool
}

func newServed(cfg serve.Config, rc *runConfig, tr *tracer) *served {
	s := &served{srv: serve.New(cfg), tr: tr, client: &http.Client{}, corrupt: rc.corrupt}
	h := s.srv.Handler()
	if tr == nil {
		s.ts = httptest.NewServer(h)
	} else {
		s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/query" && s.tracing.Load() {
				s.handleQuery(w, r)
				return
			}
			h.ServeHTTP(w, r)
		}))
	}
	return s
}

// close stops the listener and releases the server's epoch pins.
func (s *served) close() {
	s.ts.Close()
	s.srv.Close()
	s.client.CloseIdleConnections()
}

// reqIDHeader carries the benchmark's request id, linking the server-side
// span to the client's round-trip span.
const reqIDHeader = "X-Perfbench-Request"

// handleQuery answers a traced /query the way serve's handler does (decode,
// Server.Query, two-space indented JSON), with a span around Server.Query
// alone, so the HTTP round trip minus that span is the HTTP overhead.
func (s *served) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req serve.QueryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64) // 0 (no parent) when absent
	start := time.Now()
	resp, status, err := s.srv.Query(r, &req)
	s.tr.add("serve.Query", 0, parent, start, time.Now(), nil)
	s.tr.collectFlight()
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
		return
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp) // a failed write shows up as a client error
}

// post sends body to path and returns the response body and status.
func (s *served) post(path string, body []byte, reqID int64) ([]byte, int, error) {
	req, err := http.NewRequest(http.MethodPost, s.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if reqID != 0 {
		req.Header.Set(reqIDHeader, strconv.FormatInt(reqID, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// queryReply is the part of a /query response the benchmark checks: the
// embedded report, and the tenant's running total.
type queryReply struct {
	Report      json.RawMessage `json:"report"`
	TenantSpent int             `json:"tenant_spent"`
}

// servedQuery is one served answer, checked after the timed phase. It keeps
// a digest of the report rather than the report, so that what the
// benchmark holds does not grow live_heap_mb with the query count.
type servedQuery struct {
	shape  int // index into the workload's query shapes
	t1, t2 int
	// digest is the SHA-256 of the compacted report.
	digest      [sha256.Size]byte
	tenantSpent int
	// cands is the report's candidate set, kept for traced queries only
	// (their rows are replayed).
	cands []int
	err   error
}

// query posts one query and decodes the reply. The duration covers the
// whole round trip: encoding, the request, the server, reading and decoding
// the response.
func (s *served) query(req serve.QueryRequest) (servedQuery, time.Duration) {
	var id int64
	if s.tr != nil && s.tracing.Load() {
		id = s.tr.newID()
	}
	start := time.Now()
	body, _ := json.Marshal(req) // a struct of plain fields always marshals
	out, status, err := s.post("/query", body, id)
	var reply queryReply
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("query: HTTP %d: %s", status, strings.TrimSpace(string(out)))
	}
	if err == nil {
		err = json.Unmarshal(out, &reply)
	}
	end := time.Now()
	q := servedQuery{tenantSpent: reply.TenantSpent, err: err}
	if err == nil {
		var buf bytes.Buffer
		q.err = json.Compact(&buf, reply.Report)
		rep := buf.Bytes()
		if s.corrupt != nil {
			rep = s.corrupt(rep)
		}
		q.digest = sha256.Sum256(rep)
		if id != 0 {
			q.cands = candidatesOf(rep)
			s.tr.add("query", id, 0, start, end, map[string]any{"response_bytes": len(out)})
		}
	}
	return q, end.Sub(start)
}

// write ingests one slice of edges and seals it into an epoch: over HTTP
// (POST /ingest, POST /seal), or, while tracing, by direct calls into the
// graph layer with a span around each.
// The duration excludes encoding the edge list on the client.
func (s *served) write(edges []graph.TimedEdge) (time.Duration, error) {
	if s.tr != nil && s.tracing.Load() {
		in := s.srv.Ingester()
		t0 := time.Now()
		if _, err := in.IngestBatch(edges); err != nil {
			return 0, err
		}
		t1 := time.Now()
		in.Seal()
		t2 := time.Now()
		s.tr.add("graph.IngestBatch", 0, 0, t0, t1, map[string]any{"edges": len(edges)})
		s.tr.add("graph.Seal", 0, 0, t1, t2, nil)
		return t2.Sub(t0), nil
	}
	var buf bytes.Buffer
	for _, e := range edges {
		fmt.Fprintf(&buf, "%d %d %d\n", e.U, e.V, e.Time)
	}
	start := time.Now()
	if out, status, err := s.post("/ingest", buf.Bytes(), 0); err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("ingest: HTTP %d %v: %s", status, err, out)
	}
	if out, status, err := s.post("/seal", nil, 0); err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("seal: HTTP %d %v: %s", status, err, out)
	}
	return time.Since(start), nil
}

// declareTenant creates a tenant with an unlimited allowance.
func (s *served) declareTenant(name string) error {
	body, _ := json.Marshal(serve.TenantRequest{Name: name}) // plain struct
	if out, status, err := s.post("/tenants", body, 0); err != nil || status != http.StatusOK {
		return fmt.Errorf("tenant %s: HTTP %d %v: %s", name, status, err, out)
	}
	return nil
}

// scrape reads the counters named in want from the server's /metrics
// exposition.
func (s *served) scrape(want ...string) (map[string]float64, error) {
	resp, err := s.client.Get(s.ts.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64, len(want))
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		for _, w := range want {
			if name == w {
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("metric %s: %w", name, err)
				}
				out[name] = v
			}
		}
	}
	return out, sc.Err()
}
