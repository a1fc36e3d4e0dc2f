package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHandlerRejectsProcOrderAboveOrder pins that a processor order
// above the spatial order is a 400 both as a single request and as a
// batch cell, and that the daemon keeps serving afterwards. Such a
// request once reached the compute goroutine and panicked there, which
// took the whole process down.
func TestHandlerRejectsProcOrderAboveOrder(t *testing.T) {
	h := NewHandler(New(Options{Workers: 1}))
	const body = `{"Particles":100,"Order":8,"ProcOrder":16,"Trials":1}`
	rec := postExperiment(t, h, "/v1/experiments/table12", body)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "processor order") {
		t.Fatalf("single request: status %d body %s, want 400 naming the processor order", rec.Code, rec.Body)
	}
	rec = postExperiment(t, h, "/v1/batch",
		`{"experiments":["table12"],"params":`+body+`,"sweep":{"Seed":[1,2]}}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("batch: status %d body %s, want 400", rec.Code, rec.Body)
	}
	health := httptest.NewRecorder()
	h.ServeHTTP(health, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if health.Code != http.StatusOK {
		t.Fatalf("/healthz status %d after the rejected requests", health.Code)
	}
	if rec := postExperiment(t, h, "/v1/experiments/table12", tinyBody); rec.Code != http.StatusOK {
		t.Fatalf("valid request after the rejected ones: status %d", rec.Code)
	}
}

// TestHandlerRejectsRadiusPastGrid pins that a radius beyond twice the
// grid side is a 400 both as a single request and as a batch cell, and
// that the daemon keeps serving afterwards. Such a request once sized
// a neighbor-window buffer by the radius and ran the process out of
// memory.
func TestHandlerRejectsRadiusPastGrid(t *testing.T) {
	h := NewHandler(New(Options{Workers: 1}))
	const body = `{"Particles":400,"Order":5,"ProcOrder":2,"Trials":1,"Radius":1099511627776}`
	rec := postExperiment(t, h, "/v1/experiments/table12", body)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "radius") {
		t.Fatalf("single request: status %d body %s, want 400 naming the radius", rec.Code, rec.Body)
	}
	rec = postExperiment(t, h, "/v1/batch",
		`{"experiments":["table12"],"params":`+body+`,"sweep":{"Seed":[1,2]}}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("batch: status %d body %s, want 400", rec.Code, rec.Body)
	}
	health := httptest.NewRecorder()
	h.ServeHTTP(health, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if health.Code != http.StatusOK {
		t.Fatalf("/healthz status %d after the rejected requests", health.Code)
	}
	if rec := postExperiment(t, h, "/v1/experiments/table12", tinyBody); rec.Code != http.StatusOK {
		t.Fatalf("valid request after the rejected ones: status %d", rec.Code)
	}
}

// TestHandlerLegacyEngineField pins the retired NFIEngine field: every
// old spelling decodes, validates, and is served from the same cache
// entry, with the same key and result bytes, as a request without it.
// An unknown spelling is still a 400.
func TestHandlerLegacyEngineField(t *testing.T) {
	h := NewHandler(New(Options{Workers: 1}))
	base := postExperiment(t, h, "/v1/experiments/table12", tinyBody)
	if base.Code != http.StatusOK {
		t.Fatalf("base request status %d: %s", base.Code, base.Body)
	}
	var want Envelope
	if err := json.Unmarshal(base.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"tree", "keys", "auto"} {
		body := strings.Replace(tinyBody, "{", `{"NFIEngine":"`+engine+`",`, 1)
		rec := postExperiment(t, h, "/v1/experiments/table12", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("NFIEngine=%q: status %d: %s", engine, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("X-Cache"); got != "hit" {
			t.Errorf("NFIEngine=%q: X-Cache %q, want hit", engine, got)
		}
		var got Envelope
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if got.Key != want.Key || !bytes.Equal(got.Result, want.Result) {
			t.Errorf("NFIEngine=%q: key %s / result differ from the request without the field (key %s)",
				engine, got.Key, want.Key)
		}
	}
	body := strings.Replace(tinyBody, "{", `{"NFIEngine":"quadtree",`, 1)
	if rec := postExperiment(t, h, "/v1/experiments/table12", body); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown engine spelling: status %d, want 400", rec.Code)
	}
}
