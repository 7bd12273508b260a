package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// twoEpochServer returns a server with two sealed epochs over a small random
// stream, loaded through its own handler.
func twoEpochServer(t testing.TB) (*Server, http.Handler) {
	t.Helper()
	srv := New(Config{Immediate: true})
	h := srv.Handler()
	stream := genStream(40, 60, 3)
	cut := int(0.8 * float64(len(stream)))
	for _, part := range []string{streamText(stream[:cut]), streamText(stream[cut:])} {
		for _, req := range []*http.Request{
			httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(part)),
			httptest.NewRequest(http.MethodPost, "/seal", nil),
		} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", req.URL.Path, rec.Code, rec.Body)
			}
		}
	}
	return srv, h
}

// do sends one request through h and returns the recorded reply.
func do(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// FuzzQueryBody posts arbitrary bytes to /query. Whatever the body, the
// server must not panic or answer 5xx, and a refused query (any non-200
// reply) must leave every tenant's spending, as GET /tenants reports it,
// unchanged.
func FuzzQueryBody(f *testing.F) {
	for _, seed := range []string{
		`{"tenant":"a","selector":"Degree","m":8,"k":3}`,
		`{"tenant":"a","selector":"MMSD","m":10,"l":3,"delta":1,"paired":"incremental"}`,
		`{"tenant":"a","selector":"MaxMin","m":6,"k":2,"t1":1,"t2":2,"seed":9}`,
		`{"tenant":"a","selector":"Degree","m":0,"k":3}`,
		`{"tenant":"a","selector":"Degree","m":5,"k":3,"delta":2}`,
		`{"tenant":"a","selector":"nope","m":5,"k":3}`,
		`{"tenant":"a","selector":"SumDiff","m":4,"l":50,"k":3}`,
		`{"tenant":"a","selector":"Degree","m":5,"k":3,"t1":2,"t2":9}`,
		`{"tenant":"b","selector":"Degree","m":5,"k":1073741824}`,
		`{"tenant":"","selector":"Degree"}`,
		`{"m":"x"}`,
		`[1,2]`,
		`{`,
		``,
	} {
		f.Add([]byte(seed))
	}
	_, h := twoEpochServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		before := do(h, http.MethodGet, "/tenants", nil).Body.String()
		rec := do(h, http.MethodPost, "/query", body)
		if rec.Code >= 500 {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		if rec.Code == http.StatusOK {
			return
		}
		if after := do(h, http.MethodGet, "/tenants", nil).Body.String(); after != before {
			t.Fatalf("refused query (status %d, body %q) changed /tenants:\nbefore %s\nafter  %s",
				rec.Code, body, before, after)
		}
	})
}

// TestOversizedBodyRefused pins the body cap on both JSON endpoints: a body
// past maxJSONBody gets 413, and neither creates nor charges a tenant.
func TestOversizedBodyRefused(t *testing.T) {
	srv, h := twoEpochServer(t)
	pad := strings.Repeat("x", maxJSONBody)
	for _, c := range []struct{ path, body string }{
		{"/query", `{"tenant":"big","selector":"Degree","m":5,"k":3,"seed":1,"pad":"` + pad + `"}`},
		{"/query", `{"tenant":"big","selector":"Degree","m":5,"k":3}` + strings.Repeat(" ", maxJSONBody)},
		{"/tenants", `{"name":"big","limit":10,"pad":"` + pad + `"}`},
	} {
		rec := do(h, http.MethodPost, c.path, []byte(c.body))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d, want 413: %s", c.path, rec.Code, rec.Body)
		}
	}
	if reports := srv.Registry().Reports(); len(reports) != 0 {
		t.Fatalf("oversized bodies touched tenants: %v", reports)
	}
}

// TestIngestRejectsHugeNodeID pins the /ingest node-ID cap: a body naming an
// ID at or past MaxNodeID is refused with 400 before any of its lines is
// ingested, so the edge count and the next epoch's node count stay as they
// were and no seal is sized by the huge ID.
func TestIngestRejectsHugeNodeID(t *testing.T) {
	srv := New(Config{Immediate: true})
	defer srv.Close()
	h := srv.Handler()
	if rec := do(h, http.MethodPost, "/ingest", []byte("0 1\n1 2\n")); rec.Code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", rec.Code, rec.Body)
	}
	first := srv.Ingester().Seal()
	edges := srv.Ingester().EdgeCount()
	for _, body := range []string{
		"2 3\n0 16777216\n",
		"0 1000000000\n",
		"2 3 7\n4294967296 1 8\n",
		"3 -1\n",
	} {
		rec := do(h, http.MethodPost, "/ingest", []byte(body))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400: %s", body, rec.Code, rec.Body)
		}
		if got := srv.Ingester().EdgeCount(); got != edges {
			t.Fatalf("body %q: edge count %d after a refused ingest, want %d", body, got, edges)
		}
	}
	next := srv.Ingester().Seal()
	if next.Graph().NumNodes() != first.Graph().NumNodes() || next.EdgeCount != first.EdgeCount {
		t.Fatalf("next epoch has %d nodes, %d edges; want %d, %d",
			next.Graph().NumNodes(), next.EdgeCount, first.Graph().NumNodes(), first.EdgeCount)
	}
	if rec := do(h, http.MethodPost, "/ingest", []byte(fmt.Sprintf("0 %d\n", MaxNodeID-1))); rec.Code != http.StatusOK {
		t.Fatalf("largest allowed ID: status %d: %s", rec.Code, rec.Body)
	}
}

// FuzzIngestBody posts arbitrary bytes to /ingest on a fresh server, then
// seals. Whatever the body, the server must not panic or answer 5xx, a
// refused body must ingest nothing, and the sealed epoch must never span
// more than MaxNodeID nodes.
func FuzzIngestBody(f *testing.F) {
	for _, seed := range []string{
		"0 1 0\n1 2 1\n2 0 2\n",
		"# comment\n\n3 4\n4 5 9\n",
		"1 1\n1 2\n1 2\n",
		"0 16777215\n",
		"0 16777216\n",
		"-1 2\n",
		"0 1 2 3\n",
		"a b\n",
		"9223372036854775807 0\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := New(Config{Immediate: true, Retain: 1})
		defer srv.Close()
		h := srv.Handler()
		rec := do(h, http.MethodPost, "/ingest", body)
		if rec.Code >= 500 {
			t.Fatalf("ingest status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		if rec.Code != http.StatusOK && srv.Ingester().EdgeCount() != 0 {
			t.Fatalf("refused body %q (status %d) ingested %d edges", body, rec.Code, srv.Ingester().EdgeCount())
		}
		rec = do(h, http.MethodPost, "/seal", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("seal status %d after body %q: %s", rec.Code, body, rec.Body)
		}
		var ep EpochInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &ep); err != nil {
			t.Fatal(err)
		}
		if ep.Nodes > MaxNodeID {
			t.Fatalf("body %q sealed an epoch of %d nodes, cap %d", body, ep.Nodes, MaxNodeID)
		}
	})
}
