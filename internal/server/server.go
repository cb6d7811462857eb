// Package server is the warm-serving front over the experiment registry
// and the persistent result cache: an HTTP/JSON API that runs experiments
// by name, answers single-trial what-if queries ("same run, one more
// node", "double the failure rate") by hashing the perturbed
// configuration and simulating only on a cache miss, and exposes the
// cache counters.
//
// The server exists because the simulator is deterministic: a result is a
// pure function of its canonical configuration, so a cache keyed on that
// configuration never serves a wrong answer — only a fast one. A warm
// server answers a what-if delta in microseconds where a cold one pays a
// full simulation.
//
// The HTTP layer is real-time by nature and exempt from the walltime
// determinism lint.
//
//wfsimlint:wallclock
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"wfsim/internal/cluster"
	"wfsim/internal/costmodel"
	"wfsim/internal/experiments"
	"wfsim/internal/resultcache"
	"wfsim/internal/runner"
	"wfsim/internal/sched"
	"wfsim/internal/storage"
)

// Server serves the experiment registry over HTTP. It owns a trial engine
// (with its in-process memo) and optionally a persistent result cache
// shared with every other wfsim process pointing at the same directory.
type Server struct {
	eng   *runner.Engine
	store *resultcache.Store // nil when serving without persistence
	mux   *http.ServeMux
}

// New builds a server over eng. store may be nil (no persistence: only
// the engine's in-process memo accelerates repeated queries).
func New(eng *runner.Engine, store *resultcache.Store) *Server {
	if store != nil {
		eng.SetCache(store)
	}
	s := &Server{eng: eng, store: store, mux: http.NewServeMux()}
	s.mux.HandleFunc("/experiments", s.handleExperiments)
	s.mux.HandleFunc("/run/", s.handleRun)
	s.mux.HandleFunc("/whatif", s.handleWhatIf)
	s.mux.HandleFunc("/stats", s.handleStats)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// writeJSON encodes v in full before it writes the header, so a value
// that cannot be encoded (a NaN or infinite field, say) answers 500 with a
// JSON error body instead of a truncated response under status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		status = http.StatusInternalServerError
		// A map of strings always encodes.
		body, _ = json.MarshalIndent(map[string]string{"error": "encoding response: " + err.Error()}, "", "  ")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleExperiments lists the registry: GET /experiments.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type item struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	var out []item
	for _, e := range experiments.All() {
		out = append(out, item{ID: e.ID, Title: e.Title})
	}
	writeJSON(w, http.StatusOK, out)
}

// RunResponse is the payload of GET /run/{id}.
type RunResponse struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// Rendered is the experiment's paper-style textual output — exactly
	// what `wfsim run <id>` prints, so warm and cold answers are
	// byte-comparable.
	Rendered string `json:"rendered"`
	WallMS   int64  `json:"wall_ms"`
	// Trials/Memoized/CacheHits are the engine-accounting deltas for this
	// request: CacheHits counts trials served from the persistent cache.
	Trials    int `json:"trials"`
	Memoized  int `json:"memoized"`
	CacheHits int `json:"cache_hits"`
}

// handleRun executes one experiment by ID: GET /run/fig7a.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/run/")
	e, err := experiments.ByID(id)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	before := s.eng.Stats()
	start := time.Now()
	res, err := e.Run(r.Context(), s.eng)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%s: %v", id, err)
		return
	}
	after := s.eng.Stats()
	writeJSON(w, http.StatusOK, RunResponse{
		ID:        e.ID,
		Title:     e.Title,
		Rendered:  res.Render(),
		WallMS:    time.Since(start).Milliseconds(),
		Trials:    after.Trials - before.Trials,
		Memoized:  after.Memoized - before.Memoized,
		CacheHits: after.CacheHits - before.CacheHits,
	})
}

// Perturbation is the delta a what-if query applies to its base cell.
// Zero-valued fields leave the base untouched.
type Perturbation struct {
	// NodesDelta adds (or, negative, removes) cluster nodes. The base
	// topology is the cell's cluster, defaulting to Minotauro.
	NodesDelta int `json:"nodes_delta,omitempty"`
	// FaultScale multiplies the failure intensity: task-failure
	// probability scales up by it, node and straggler MTBFs scale down.
	// 2 = "double the failure rate"; 0 means unchanged.
	FaultScale float64 `json:"fault_scale,omitempty"`
	// Device switches the compute device: "cpu" or "gpu".
	Device string `json:"device,omitempty"`
	// Storage switches the storage architecture: "shared" or "local".
	Storage string `json:"storage,omitempty"`
	// Policy switches the scheduling policy by its stable token: "fifo",
	// "locality", "lifo", "random", "heft", "blevel", "minmin" or
	// "worksteal" (sched.ParsePolicy).
	Policy string `json:"policy,omitempty"`
}

// Apply returns the perturbed copy of cfg.
func (p Perturbation) Apply(cfg experiments.CellConfig) (experiments.CellConfig, error) {
	if p.NodesDelta != 0 {
		if cfg.Cluster == (cluster.Spec{}) {
			cfg.Cluster = cluster.Minotauro()
		}
		cfg.Cluster.Nodes += p.NodesDelta
		if cfg.Cluster.Nodes < 1 {
			return cfg, fmt.Errorf("nodes_delta %d leaves %d nodes", p.NodesDelta, cfg.Cluster.Nodes)
		}
	}
	if p.FaultScale != 0 {
		f := &cfg.Faults
		f.TaskFailProb *= p.FaultScale
		if f.TaskFailProb > 1 {
			f.TaskFailProb = 1
		}
		f.NodeMTBF /= p.FaultScale
		f.StragglerMTBF /= p.FaultScale
	}
	switch p.Device {
	case "":
	case "cpu":
		cfg.Device = costmodel.CPU
	case "gpu":
		cfg.Device = costmodel.GPU
	default:
		return cfg, fmt.Errorf("unknown device %q", p.Device)
	}
	switch p.Storage {
	case "":
	case "shared":
		cfg.Storage = storage.Shared
	case "local":
		cfg.Storage = storage.Local
	default:
		return cfg, fmt.Errorf("unknown storage %q", p.Storage)
	}
	if p.Policy != "" {
		pol, err := sched.ParsePolicy(p.Policy)
		if err != nil {
			return cfg, fmt.Errorf("unknown policy %q", p.Policy)
		}
		cfg.Policy = pol
	}
	return cfg, nil
}

// WhatIfRequest is the payload of POST /whatif: a base factor combination
// plus a perturbation. The perturbed configuration is canonically hashed;
// a warm cache answers without simulating.
type WhatIfRequest struct {
	Cell    experiments.CellConfig `json:"cell"`
	Perturb Perturbation           `json:"perturb"`
}

// WhatIfResponse reports both the perturbed cell's outcome and the base's
// (also cache-served when warm), so a single query answers "what does the
// change buy".
type WhatIfResponse struct {
	Key    string           `json:"key"`
	Base   experiments.Cell `json:"base"`
	Cell   experiments.Cell `json:"cell"`
	Wall   float64          `json:"wall_seconds"`
	Source string           `json:"source"` // "cache", "memo" or "simulation"
	// MakespanDelta is cell minus base makespan, negative = improvement.
	MakespanDelta float64 `json:"makespan_delta"`
}

// maxWhatIfBody bounds a POST /whatif body. A WhatIfRequest encodes in
// well under a kilobyte; a body past the bound answers 413 undecoded.
const maxWhatIfBody = 1 << 20

// handleWhatIf answers a single-trial perturbation query.
func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST a WhatIfRequest")
		return
	}
	var req WhatIfRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWhatIfBody)).Decode(&req); err != nil {
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		writeErr(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	perturbed, err := req.Perturb.Apply(req.Cell)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad perturbation: %v", err)
		return
	}
	start := time.Now()
	base, _, err := s.runCellCached(r.Context(), req.Cell)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "base: %v", err)
		return
	}
	cell, source, err := s.runCellCached(r.Context(), perturbed)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "perturbed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, WhatIfResponse{
		Key:           experiments.CellKey(perturbed),
		Base:          base,
		Cell:          cell,
		Wall:          time.Since(start).Seconds(),
		Source:        source,
		MakespanDelta: cell.Makespan - base.Makespan,
	})
}

// runCellCached executes one factor combination through the engine — so
// it flows through the same memo and persistent-cache layers as every
// experiment — and reports where the answer came from: "cache" when the
// persistent store served it, "memo" when this process had already
// simulated it, "simulation" when it ran fresh.
func (s *Server) runCellCached(ctx context.Context, cfg experiments.CellConfig) (experiments.Cell, string, error) {
	key := experiments.CellKey(cfg)
	trial := runner.Trial{
		ID:    "whatif:" + key[:12],
		Key:   key,
		Codec: runner.JSONCodec[experiments.Cell](),
		Run:   func(ctx context.Context) (any, error) { return experiments.RunCell(ctx, cfg) },
	}
	rep, err := s.eng.Run(ctx, []runner.Trial{trial})
	if err != nil {
		return experiments.Cell{}, "", err
	}
	o := rep.Outcomes[0]
	source := "simulation"
	switch {
	case o.CacheHit:
		source = "cache"
	case o.Memoized:
		source = "memo"
	}
	return o.Value.(experiments.Cell), source, nil
}

// handleStats reports cache and engine counters: GET /stats.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	type stats struct {
		Engine runner.Stats       `json:"engine"`
		Cache  *resultcache.Stats `json:"cache,omitempty"`
	}
	out := stats{Engine: s.eng.Stats()}
	if s.store != nil {
		st := s.store.Stats()
		out.Cache = &st
	}
	writeJSON(w, http.StatusOK, out)
}
