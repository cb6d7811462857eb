package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wfsim/internal/dataset"
	"wfsim/internal/experiments"
	"wfsim/internal/resultcache"
	"wfsim/internal/runner"
)

func getJSON(t *testing.T, srv *Server, path string, out any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

func postWhatIf(t *testing.T, srv *Server, req WhatIfRequest) WhatIfResponse {
	t.Helper()
	body, _ := json.Marshal(req)
	hr := httptest.NewRequest(http.MethodPost, "/whatif", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, hr)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /whatif = %d: %s", rec.Code, rec.Body)
	}
	var resp WhatIfResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// smallCell is a fast factor combination for server tests.
func smallCell() experiments.CellConfig {
	return experiments.CellConfig{
		Algorithm: experiments.KMeans,
		Dataset:   dataset.KMeansSmall,
		Grid:      32,
		Clusters:  10,
	}
}

func TestExperimentsEndpoint(t *testing.T) {
	srv := New(runner.New(2), nil)
	var items []struct{ ID, Title string }
	getJSON(t, srv, "/experiments", &items)
	if len(items) == 0 {
		t.Fatal("empty registry")
	}
	seen := map[string]bool{}
	for _, it := range items {
		seen[it.ID] = true
	}
	for _, want := range []string{"fig1", "table1", "ext1"} {
		if !seen[want] {
			t.Errorf("registry missing %s", want)
		}
	}
}

func TestRunEndpointUnknownID(t *testing.T) {
	srv := New(runner.New(2), nil)
	req := httptest.NewRequest(http.MethodGet, "/run/nope", nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("code = %d, want 404", rec.Code)
	}
}

// TestWriteJSONUnencodable serves a handler whose result holds a NaN: the
// response must be a complete 500 with a JSON error body, never a
// truncated 200.
func TestWriteJSONUnencodable(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct{ Speedup float64 }{math.NaN()})
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("code = %d, want 500: %s", rec.Code, rec.Body)
	}
	var body struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body is not JSON: %v: %q", err, rec.Body)
	}
	if !strings.Contains(body.Error, "unsupported value: NaN") {
		t.Fatalf("error = %q, want the encoder's complaint", body.Error)
	}
}

func TestWhatIfPerturbations(t *testing.T) {
	srv := New(runner.New(4), nil)

	// Identity perturbation: base and cell identical.
	same := postWhatIf(t, srv, WhatIfRequest{Cell: smallCell()})
	if same.MakespanDelta != 0 {
		t.Fatalf("identity perturbation changed the makespan by %v", same.MakespanDelta)
	}
	if same.Cell.Makespan <= 0 {
		t.Fatal("zero makespan")
	}

	// Device switch must change the result (GPU beats CPU on kmeans small
	// blocks or vice versa — either way, not equal).
	dev := postWhatIf(t, srv, WhatIfRequest{Cell: smallCell(), Perturb: Perturbation{Device: "gpu"}})
	if dev.MakespanDelta == 0 {
		t.Fatal("device switch left the makespan unchanged")
	}

	// Doubling the failure rate on a faultless base is a no-op
	// physically but must still be a *different key* when the base has
	// faults configured; on a zero config it stays equal.
	if k := experiments.CellKey(smallCell()); dev.Key == k {
		t.Fatal("perturbed key equals base key")
	}

	// Invalid perturbation → 400.
	body, _ := json.Marshal(WhatIfRequest{Cell: smallCell(), Perturb: Perturbation{Device: "tpu"}})
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/whatif", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad device: code = %d, want 400", rec.Code)
	}
}

// TestWhatIfServedFromCache is the acceptance test for the warm-serving
// layer: a second server process (fresh engine, fresh memo) over the same
// cache directory answers the same what-if query from the persistent
// cache, without re-simulating, byte-identically.
func TestWhatIfServedFromCache(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Server, *resultcache.Store) {
		store, err := resultcache.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return New(runner.New(2), store), store
	}
	req := WhatIfRequest{Cell: smallCell(), Perturb: Perturbation{NodesDelta: 1}}

	srv1, store1 := open()
	cold := postWhatIf(t, srv1, req)
	if cold.Source != "simulation" {
		t.Fatalf("cold source = %q, want simulation", cold.Source)
	}
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, store2 := open()
	defer store2.Close()
	warm := postWhatIf(t, srv2, req)
	if warm.Source != "cache" {
		t.Fatalf("warm source = %q, want cache", warm.Source)
	}
	if warm.Cell != cold.Cell || warm.Base != cold.Base {
		t.Fatal("cache-served what-if differs from the simulated one")
	}
	if warm.Key != cold.Key {
		t.Fatalf("key drifted across processes: %s vs %s", warm.Key, cold.Key)
	}

	// /stats reflects the warm serving.
	var st struct {
		Engine runner.Stats       `json:"engine"`
		Cache  *resultcache.Stats `json:"cache"`
	}
	getJSON(t, srv2, "/stats", &st)
	if st.Engine.CacheHits < 2 { // base + perturbed
		t.Fatalf("engine CacheHits = %d, want >= 2", st.Engine.CacheHits)
	}
	if st.Cache == nil || st.Cache.Hits < 2 {
		t.Fatalf("cache stats = %+v", st.Cache)
	}
}

// TestRunEndpointWarm: the same experiment served twice across processes
// renders byte-identically, the second time from cache.
func TestRunEndpointWarm(t *testing.T) {
	dir := t.TempDir()
	srv1, store1 := func() (*Server, *resultcache.Store) {
		store, err := resultcache.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		return New(runner.New(4), store), store
	}()
	var cold RunResponse
	getJSON(t, srv1, "/run/ext3", &cold)
	if cold.CacheHits != 0 || cold.Trials == 0 {
		t.Fatalf("cold run: %+v", cold)
	}
	store1.Close()

	store2, err := resultcache.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	srv2 := New(runner.New(4), store2)
	var warm RunResponse
	getJSON(t, srv2, "/run/ext3", &warm)
	if warm.Rendered != cold.Rendered {
		t.Fatal("warm render differs from cold render")
	}
	if warm.CacheHits != warm.Trials {
		t.Fatalf("warm run: %d/%d trials from cache", warm.CacheHits, warm.Trials)
	}
}

// TestWhatIfBodyLimit posts a body past maxWhatIfBody: the handler must
// stop reading and answer 413, not decode it.
func TestWhatIfBodyLimit(t *testing.T) {
	srv := New(runner.New(1), nil)
	body := `{"cell": {"Dataset": {"Name": "` + strings.Repeat("x", maxWhatIfBody) + `"}}}`
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/whatif", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("code = %d, want 413: %s", rec.Code, rec.Body)
	}
	var resp struct{ Error string }
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || !strings.Contains(resp.Error, "exceeds") {
		t.Fatalf("error body = %q (%v), want the size complaint", rec.Body, err)
	}
}
