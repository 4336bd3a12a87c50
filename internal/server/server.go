package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"feam/internal/elfimg"
	"feam/internal/execsim"
	"feam/internal/experiment"
	"feam/internal/feam"
	"feam/internal/obs"
	"feam/internal/registry"
	"feam/internal/scenario"
	"feam/internal/store"
	"feam/internal/testbed"
	"feam/internal/vfs"
)

// Config configures a FEAM prediction service.
type Config struct {
	// Fleet declares the sites the service answers for.
	Fleet scenario.FleetSpec
	// Seed drives the deterministic probe simulator.
	Seed int64
	// Workers bounds batch fan-out (0 = the engine default).
	Workers int
	// MaxBinaryBytes caps the decoded size of a request's binary
	// (0 = DefaultMaxBinaryBytes).
	MaxBinaryBytes int64
	// TraceCapacity sizes the tracer ring (0 = the tracer default).
	TraceCapacity int
}

// DefaultMaxBinaryBytes caps client-supplied binaries at 8 MiB.
const DefaultMaxBinaryBytes = 8 << 20

// Server is the FEAM control plane: an engine over a sharded registry and
// a persistent store, a fleet of sites, and a coalescer that deduplicates
// identical concurrent predictions. Zero-value is not usable; construct
// with New.
type Server struct {
	cfg     Config
	tb      *testbed.Testbed
	eng     *feam.Engine
	co      *feam.Coalescer
	runner  feam.ProgramRunner
	metrics *obs.Registry
	tracer  *obs.Tracer
	st      *store.Store

	// defaultBin is the built-in minimal probe binary used by requests
	// that carry no binary of their own; defaultDesc is its description,
	// computed once so the hot serving path neither re-parses nor
	// re-hashes it per request.
	defaultBin  []byte
	defaultDesc *feam.BinaryDescription

	mux *http.ServeMux

	// predicting tracks in-flight prediction work so Commit can drain it
	// even when invoked outside the HTTP shutdown path.
	predicting sync.WaitGroup
}

// New builds the service: fleet construction, engine stack (tracer,
// metrics, sharded registry, persistent store on an isolated state
// filesystem), and the HTTP routes.
func New(cfg Config) (*Server, error) {
	tb, err := scenario.BuildFleet(cfg.Fleet)
	if err != nil {
		return nil, fmt.Errorf("server: building fleet: %w", err)
	}
	metricsReg := obs.NewRegistry()
	tracer := obs.NewTracer(cfg.TraceCapacity)
	st, err := store.Open(vfs.New(), "/state",
		store.WithMetrics(metricsReg), store.WithTracer(tracer))
	if err != nil {
		return nil, fmt.Errorf("server: opening store: %w", err)
	}
	engOpts := []feam.Option{
		feam.WithTracer(tracer),
		feam.WithMetrics(metricsReg),
		feam.WithRegistry(registry.New(registry.WithMetrics(metricsReg))),
		feam.WithStore(st),
	}
	if cfg.Workers > 0 {
		engOpts = append(engOpts, feam.WithWorkers(cfg.Workers))
	}
	eng := feam.New(engOpts...)

	sim := execsim.NewSimulator(cfg.Seed)
	sim.TransientRate = 0 // the service answers deterministically

	s := &Server{
		cfg:     cfg,
		tb:      tb,
		eng:     eng,
		co:      feam.NewCoalescer(eng),
		runner:  experiment.NewSimProbeRunner(sim),
		metrics: metricsReg,
		tracer:  tracer,
		st:      st,
		defaultBin: elfimg.MustBuild(elfimg.Spec{
			Class: elfimg.Class64, Machine: elfimg.EMX8664, Type: elfimg.TypeExec,
			Interp: "/lib64/ld-linux-x86-64.so.2",
			Needed: []string{"libc.so.6"},
			VerNeeds: []elfimg.VerNeed{
				{File: "libc.so.6", Versions: []string{"GLIBC_2.0", "GLIBC_2.3.4"}},
			},
			Imports: []elfimg.ImportedSymbol{
				{Name: "printf", Version: "GLIBC_2.0", Library: "libc.so.6"},
				{Name: "exit", Version: "GLIBC_2.0", Library: "libc.so.6"},
				{Name: "memcpy", Version: "GLIBC_2.3.4", Library: "libc.so.6"},
				{Name: "malloc"},
			},
		}),
	}
	s.defaultDesc, err = eng.Describe(context.Background(), s.defaultBin, "app")
	if err != nil {
		return nil, fmt.Errorf("server: describing built-in binary: %w", err)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/predict", s.handlePredict)
	s.mux.HandleFunc("GET /v1/sites", s.handleSites)
	s.mux.HandleFunc("GET /v1/survey/{site}", s.handleSurvey)
	s.mux.HandleFunc("GET /v1/abi/{site}", s.handleABI)
	obs.RegisterDebug(s.mux, metricsReg, tracer)
	return s, nil
}

// Handler returns the service's HTTP surface: the /v1 API plus the
// standard debug routes (/metrics, /metrics.json, /trace, /debug/pprof,
// /debug/vars) on one mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Engine exposes the underlying engine (tests count spans through its
// tracer and metrics).
func (s *Server) Engine() *feam.Engine { return s.eng }

// CoalescerStats reports in-flight deduplication counters.
func (s *Server) CoalescerStats() feam.CoalescerStats { return s.co.Stats() }

// Sites returns the fleet size.
func (s *Server) Sites() int { return len(s.tb.Sites) }

// Run serves the API on addr until ctx is cancelled (SIGTERM in
// feam-server), then drains in-flight predictions for up to grace and
// commits the store. The drain has two layers: http.Server.Shutdown
// waits for active handlers, and Commit waits for prediction work and
// persists the final state.
func (s *Server) Run(ctx context.Context, addr string, grace time.Duration) error {
	srv := NewHTTPServer(addr, s.Handler())
	serveErr := ListenAndServe(ctx, srv, grace)
	if err := s.Commit(context.WithoutCancel(ctx)); err != nil {
		if serveErr == nil {
			return fmt.Errorf("server: committing store on shutdown: %w", err)
		}
		return serveErr
	}
	return serveErr
}

// Commit waits for in-flight prediction work and persists the shutdown
// state: every fleet site's inventory record plus a service manifest
// (fleet size, request counters, coalescing stats), so a restarted
// server — or an operator reading the store — sees what this process
// knew. The engine has already persisted surveys and descriptions as
// they were computed; Commit completes the picture.
func (s *Server) Commit(ctx context.Context) error {
	s.predicting.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	type siteRecord struct {
		Name       string `json:"name"`
		SystemType string `json:"system_type,omitempty"`
		Arch       string `json:"arch,omitempty"`
		OS         string `json:"os,omitempty"`
		Glibc      string `json:"glibc,omitempty"`
		Cores      int    `json:"cores,omitempty"`
	}
	for _, site := range s.tb.Sites {
		rec := siteRecord{
			Name:       site.Name,
			SystemType: site.SystemType,
			Arch:       site.Arch.CPUName,
			OS:         site.OS.Distro + " " + site.OS.Version,
			Glibc:      site.Glibc.String(),
			Cores:      site.Cores,
		}
		payload, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("server: encoding site record %s: %w", site.Name, err)
		}
		if err := s.st.Put(feam.KindSite, site.Name, payload); err != nil {
			return fmt.Errorf("server: persisting site record %s: %w", site.Name, err)
		}
	}
	st := s.co.Stats()
	manifest := map[string]any{
		"sites":          len(s.tb.Sites),
		"predict_leads":  st.Leads,
		"coalesced":      st.Coalesced,
		"coalesce_rate":  st.HitRate(),
		"clean_shutdown": true,
	}
	payload, err := json.Marshal(manifest)
	if err != nil {
		return fmt.Errorf("server: encoding manifest: %w", err)
	}
	if err := s.st.Put("server", "manifest", payload); err != nil {
		return fmt.Errorf("server: persisting manifest: %w", err)
	}
	return nil
}

// ---- v1 envelope ----

// Error codes carried in the v1 envelope. Clients branch on these, not on
// message text.
const (
	// CodeBadRequest marks malformed input (unreadable body, bad JSON,
	// invalid base64, bad query parameters).
	CodeBadRequest = "bad_request"
	// CodeNotFound marks references to sites the fleet does not serve.
	CodeNotFound = "not_found"
	// CodeTooLarge marks binaries over the configured size cap, and
	// request bodies over twice that cap.
	CodeTooLarge = "payload_too_large"
	// CodeUpstream marks prediction or survey work that failed behind the
	// API (engine faults, batch faults).
	CodeUpstream = "upstream_failed"
)

// APIError is the machine-readable error half of the v1 envelope.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Envelope is the uniform v1 response shape: every endpoint answers
// {"data": ...} on success and {"error": {"code", "message"}} on failure.
// A partial prediction that failed mid-ladder carries both.
type Envelope struct {
	Data  any       `json:"data,omitempty"`
	Error *APIError `json:"error,omitempty"`
}

// codeForStatus maps an HTTP status to its envelope error code.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusRequestEntityTooLarge:
		return CodeTooLarge
	default:
		return CodeUpstream
	}
}

// ---- /v1/predict ----

// PredictRequest is one prediction query. An empty BinaryB64 evaluates
// the server's built-in minimal probe binary — feam-load uses this to
// keep request bodies small.
type PredictRequest struct {
	// Site names the target site (required).
	Site string `json:"site"`
	// Name labels a client-supplied binary in descriptions and spans;
	// the built-in binary is always described as "app".
	Name string `json:"name,omitempty"`
	// BinaryB64 is the application image, base64-encoded.
	BinaryB64 string `json:"binary_b64,omitempty"`
	// Probe runs hello-world probes through the simulated batch layer
	// instead of presence-only stack checks.
	Probe bool `json:"probe,omitempty"`
}

// PredictResponse is one prediction answer (the envelope's data half).
type PredictResponse struct {
	Site         string            `json:"site"`
	Binary       string            `json:"binary,omitempty"`
	Ready        bool              `json:"ready"`
	Coalesced    bool              `json:"coalesced"`
	Determinants map[string]string `json:"determinants,omitempty"`
	Reasons      []string          `json:"reasons,omitempty"`
}

// predictBody is the wire shape: either a single request or a batch.
type predictBody struct {
	PredictRequest
	Requests []PredictRequest `json:"requests,omitempty"`
}

// PredictResult is one batch entry's answer, mirroring the top-level
// envelope shape so single and batched responses read the same way.
type PredictResult struct {
	Data  *PredictResponse `json:"data,omitempty"`
	Error *APIError        `json:"error,omitempty"`
}

// batchResponse wraps fan-out results.
type batchResponse struct {
	Results []PredictResult `json:"results"`
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	s.metrics.Counter("http_predict_requests").Add(1)
	// Bodies are capped at twice the binary cap (base64 plus JSON framing).
	// One byte past the cap is read so an oversized body is refused as
	// such, not cut short and reported as malformed JSON.
	limit := s.maxBinaryBytes() * 2
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if int64(len(body)) > limit {
		s.fail(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", limit)
		return
	}
	var pb predictBody
	if err := json.Unmarshal(body, &pb); err != nil {
		s.fail(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if len(pb.Requests) == 0 {
		resp, apiErr, status := s.predictOne(r.Context(), pb.PredictRequest)
		var data any
		if resp != nil {
			data = resp // keep a nil *PredictResponse out of the envelope
		}
		s.replyEnvelope(w, status, data, apiErr)
		return
	}
	// Batch: fan out through the engine's bounded worker width. Every
	// entry gets an answer at its input index; per-entry failures are
	// reported in-place, and the batch itself is 200 unless every entry
	// failed.
	results := make([]PredictResult, len(pb.Requests))
	statuses := make([]int, len(pb.Requests))
	workers := s.eng.Workers()
	if workers > len(pb.Requests) {
		workers = len(pb.Requests)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, req := range pb.Requests {
		wg.Add(1)
		go func(i int, req PredictRequest) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var resp *PredictResponse
			resp, results[i].Error, statuses[i] = s.predictOne(r.Context(), req)
			results[i].Data = resp
		}(i, req)
	}
	wg.Wait()
	status := http.StatusOK
	allFailed := true
	for _, st := range statuses {
		if st == http.StatusOK {
			allFailed = false
		}
	}
	if allFailed {
		status = http.StatusBadGateway
	}
	s.replyEnvelope(w, status, batchResponse{Results: results}, nil)
}

// predictOne answers one prediction through the coalescer. The response is
// nil on failures that produced nothing; a partial prediction (determinant
// trail up to the fault) comes back beside its error.
func (s *Server) predictOne(ctx context.Context, req PredictRequest) (*PredictResponse, *APIError, int) {
	site, ok := s.tb.ByName[req.Site]
	if !ok {
		return nil, &APIError{Code: CodeNotFound, Message: fmt.Sprintf("unknown site %q", req.Site)}, http.StatusNotFound
	}
	// Requests without a binary evaluate the built-in one through its
	// precomputed description — the hot path for load generation, and the
	// shape the coalescer dedupes hardest (no per-request hashing).
	evalReq := feam.EvalRequest{
		Binary: s.defaultBin, Desc: s.defaultDesc, Site: site,
	}
	if req.BinaryB64 != "" {
		decoded, err := base64.StdEncoding.DecodeString(req.BinaryB64)
		if err != nil {
			return nil, &APIError{Code: CodeBadRequest, Message: "binary_b64: " + err.Error()}, http.StatusBadRequest
		}
		if int64(len(decoded)) > s.maxBinaryBytes() {
			return nil, &APIError{Code: CodeTooLarge, Message: fmt.Sprintf("binary exceeds %d bytes", s.maxBinaryBytes())}, http.StatusRequestEntityTooLarge
		}
		name := req.Name
		if name == "" {
			name = "app"
		}
		evalReq = feam.EvalRequest{Binary: decoded, BinaryName: name, Site: site}
	}
	if req.Probe {
		evalReq.Options.Runner = s.runner
	}

	s.predicting.Add(1)
	defer s.predicting.Done()
	pred, coalesced, err := s.co.Predict(ctx, evalReq)
	resp := &PredictResponse{Site: req.Site, Coalesced: coalesced}
	if coalesced {
		s.metrics.Counter("http_predict_coalesced").Add(1)
	}
	if pred != nil {
		resp.Binary = pred.Binary
		resp.Ready = pred.Ready
		resp.Reasons = pred.Reasons
		resp.Determinants = map[string]string{}
		for _, d := range feam.Determinants() {
			resp.Determinants[d.String()] = pred.Determinants[d].Outcome.String()
		}
	}
	if err != nil {
		apiErr := &APIError{Code: CodeUpstream, Message: err.Error()}
		if pred == nil {
			// Nothing to ship: the error stands alone.
			return nil, apiErr, http.StatusBadGateway
		}
		// A partial prediction (determinant trail up to the fault) still
		// ships beside the error.
		return resp, apiErr, http.StatusBadGateway
	}
	return resp, nil, http.StatusOK
}

// ---- /v1/sites ----

// SiteInfo is one fleet entry in the /v1/sites listing.
type SiteInfo struct {
	Name       string `json:"name"`
	SystemType string `json:"system_type,omitempty"`
	Arch       string `json:"arch,omitempty"`
	OS         string `json:"os,omitempty"`
	Glibc      string `json:"glibc,omitempty"`
	Cores      int    `json:"cores,omitempty"`
	Stacks     int    `json:"stacks"`
}

// SitesPage is one page of the fleet listing. NextCursor is set when more
// sites follow; pass it back as ?cursor to continue.
type SitesPage struct {
	Sites      []SiteInfo `json:"sites"`
	NextCursor string     `json:"next_cursor,omitempty"`
}

func (s *Server) handleSites(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.fail(w, http.StatusBadRequest, "limit: want a non-negative integer, got %q", v)
			return
		}
		limit = n
	}
	cursor := r.URL.Query().Get("cursor")

	out := make([]SiteInfo, 0, len(s.tb.Sites))
	for _, site := range s.tb.Sites {
		out = append(out, SiteInfo{
			Name:       site.Name,
			SystemType: site.SystemType,
			Arch:       site.Arch.CPUName,
			OS:         site.OS.Distro + " " + site.OS.Version,
			Glibc:      site.Glibc.String(),
			Cores:      site.Cores,
			Stacks:     len(site.Stacks),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	// The cursor is the last name of the previous page; the listing is
	// name-sorted, so resumption is a binary search rather than offset
	// arithmetic that breaks when the fleet changes between pages.
	if cursor != "" {
		i := sort.Search(len(out), func(i int) bool { return out[i].Name > cursor })
		out = out[i:]
	}
	page := SitesPage{Sites: out}
	if limit > 0 && len(out) > limit {
		page.Sites = out[:limit]
		page.NextCursor = out[limit-1].Name
	}
	s.replyEnvelope(w, http.StatusOK, page, nil)
}

// ---- /v1/survey/{site} ----

func (s *Server) handleSurvey(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("site")
	site, ok := s.tb.ByName[name]
	if !ok {
		s.fail(w, http.StatusNotFound, "unknown site %q", name)
		return
	}
	// Discovery follows the engine's locking discipline; repeat surveys
	// are fingerprint-gated cache hits.
	lock := s.eng.SiteLock(name)
	lock.Lock()
	env, err := s.eng.Discover(r.Context(), site)
	lock.Unlock()
	if err != nil {
		s.fail(w, http.StatusBadGateway, "survey of %s failed: %v", name, err)
		return
	}
	s.replyEnvelope(w, http.StatusOK, env, nil)
}

// ---- /v1/abi/{site} ----

// handleABI resolves the built-in probe binary's dynamic symbols against
// one site's exported-symbol index, agreement mode on — the HTTP surface
// of the feam-abi analyzer. The site lock serializes against concurrent
// surveys mutating the same site's cached state.
func (s *Server) handleABI(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("site")
	site, ok := s.tb.ByName[name]
	if !ok {
		s.fail(w, http.StatusNotFound, "unknown site %q", name)
		return
	}
	lock := s.eng.SiteLock(name)
	lock.Lock()
	report, err := s.eng.ABICheck(r.Context(), site, s.defaultBin, "app", true)
	lock.Unlock()
	if err != nil {
		s.fail(w, http.StatusBadGateway, "abi check of %s failed: %v", name, err)
		return
	}
	s.replyEnvelope(w, http.StatusOK, report, nil)
}

// ---- helpers ----

func (s *Server) maxBinaryBytes() int64 {
	if s.cfg.MaxBinaryBytes > 0 {
		return s.cfg.MaxBinaryBytes
	}
	return DefaultMaxBinaryBytes
}

// replyEnvelope writes the uniform v1 response shape. data may be nil
// (error-only), apiErr may be nil (success), or both may be set (a partial
// answer beside its error).
func (s *Server) replyEnvelope(w http.ResponseWriter, status int, data any, apiErr *APIError) {
	if status < 300 {
		s.metrics.Counter("http_2xx").Add(1)
	} else {
		s.metrics.Counter("http_errors").Add(1)
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(Envelope{Data: data, Error: apiErr})
}

func (s *Server) fail(w http.ResponseWriter, status int, format string, args ...any) {
	s.replyEnvelope(w, status, nil,
		&APIError{Code: codeForStatus(status), Message: fmt.Sprintf(format, args...)})
}
