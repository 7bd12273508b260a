package serve

import (
	"bytes"
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
