package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"feam/internal/feam"
	"feam/internal/obs"
	"feam/internal/scenario"
	"feam/internal/server"
)

// isaMixPath is the 120-site mixed-ISA fleet serve-hot and fleet-churn
// run against.
const isaMixPath = "testdata/scenarios/isa-mix.yaml"

// tinySites is the fleet size of --size tiny runs.
const tinySites = 8

// loadFleet reads the isa-mix fleet spec, shrunk for tiny runs.
func loadFleet(p Params) (scenario.FleetSpec, error) {
	//lint:ignore vfsonly the fleet spec is a file of the checkout, not a site filesystem
	data, err := os.ReadFile(filepath.Join(p.Root, isaMixPath))
	if err != nil {
		return scenario.FleetSpec{}, err
	}
	spec, err := scenario.LoadFleet(data)
	if err != nil {
		return scenario.FleetSpec{}, err
	}
	if p.Tiny {
		for i := range spec.Groups {
			if spec.Groups[i].Count > tinySites {
				spec.Groups[i].Count = tinySites
			}
		}
	}
	return spec, nil
}

// fanout is the client count, engine worker count and server fan-out of
// every workload: the machine's CPU count, capped at two.
func fanout() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	return n
}

// clientHeader tells the timing wrapper which closed-loop client sent a
// request; each client has one request in flight, so a per-client slot
// carries the handler time back to the client.
const clientHeader = "X-Perfbench-Client"

// servingStack is a feam-server with a timing wrapper around its handler,
// reached over HTTP/1.1 through an in-memory listener. The whole HTTP path
// runs — client transport, connection handling, request parsing, response
// writing — but no kernel socket does: on a shared VM, loopback syscalls
// and the cross-CPU wake-ups they cause slow down with the host's load far
// more than the server's own work does, and would hide changes to it.
type servingStack struct {
	srv     *server.Server
	inner   http.Handler
	hs      *http.Server
	done    chan struct{}
	baseURL string
	client  *http.Client

	handlerNS []atomic.Int64 // per-client handler time of the last request

	mu         sync.Mutex
	handlerLat []time.Duration
	wireLat    []time.Duration
	reqBytes   int64
	requests   int64
	non2xx     int64
	co0        feam.CoalescerStats
}

func startServing(spec scenario.FleetSpec, seed int64, clients int) (*servingStack, error) {
	srv, err := server.New(server.Config{Fleet: spec, Seed: seed, Workers: fanout()})
	if err != nil {
		return nil, err
	}
	ln := newPipeListener()
	s := &servingStack{
		srv: srv, inner: srv.Handler(), done: make(chan struct{}),
		baseURL:   "http://feam-server",
		handlerNS: make([]atomic.Int64, clients),
	}
	s.hs = &http.Server{Handler: s, ReadHeaderTimeout: 10 * time.Second}
	tr := &http.Transport{
		DialContext:         func(ctx context.Context, _, _ string) (net.Conn, error) { return ln.dial(ctx) },
		MaxIdleConns:        clients * 2,
		MaxIdleConnsPerHost: clients * 2,
		DisableCompression:  true,
	}
	s.client = &http.Client{Transport: tr, Timeout: 60 * time.Second}
	go func() {
		defer close(s.done)
		if err := s.hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return s, nil
}

// pipeListener is a net.Listener whose connections are in-memory pipes
// handed out by dial.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial opens a connection to the listener.
func (l *pipeListener) dial(ctx context.Context) (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.conns <- server:
		return client, nil
	case <-l.closed:
	case <-ctx.Done():
	}
	client.Close()
	server.Close()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return nil, net.ErrClosed
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "feam-server" }

// ServeHTTP times the server's handler.
func (s *servingStack) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	s.inner.ServeHTTP(w, r)
	d := time.Since(t0)
	if c, err := strconv.Atoi(r.Header.Get(clientHeader)); err == nil && c >= 0 && c < len(s.handlerNS) {
		s.handlerNS[c].Store(int64(d))
	}
}

// post sends one predict request for client c and returns the status, the
// response body and the client-side latency. record adds the request to
// the server-layer samples.
func (s *servingStack) post(ctx context.Context, c int, body []byte, record bool) (int, []byte, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.baseURL+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(clientHeader, strconv.Itoa(c))
	s.handlerNS[c].Store(-1)
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return resp.StatusCode, nil, lat, err
	}
	if record {
		h := time.Duration(s.handlerNS[c].Load())
		s.mu.Lock()
		s.requests++
		s.reqBytes += int64(len(body))
		if resp.StatusCode/100 != 2 {
			s.non2xx++
		}
		if h >= 0 {
			s.handlerLat = append(s.handlerLat, h)
			s.wireLat = append(s.wireLat, lat-h)
		}
		s.mu.Unlock()
	}
	return resp.StatusCode, data, lat, nil
}

func (s *servingStack) resetLayers() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlerLat, s.wireLat = nil, nil
	s.reqBytes, s.requests, s.non2xx = 0, 0, 0
	s.co0 = s.srv.CoalescerStats()
}

// layers reports the server and coalescer layers.
func (s *servingStack) layers() map[string]Metric {
	s.mu.Lock()
	defer s.mu.Unlock()
	co := s.srv.CoalescerStats()
	leads := float64(co.Leads - s.co0.Leads)
	coalesced := float64(co.Coalesced - s.co0.Coalesced)
	return map[string]Metric{
		"server.requests":          {float64(s.requests), "count"},
		"server.request_kb":        {ratio(float64(s.reqBytes)/1024, float64(s.requests)), "KB"},
		"server.handler_ms_p50":    {quantile(s.handlerLat, 0.5), "ms"},
		"server.handler_ms_p99":    {quantile(s.handlerLat, 0.99), "ms"},
		"server.wire_ms_p50":       {quantile(s.wireLat, 0.5), "ms"},
		"server.non_2xx":           {float64(s.non2xx), "count"},
		"feam.coalescer.leads":     {leads, "count"},
		"feam.coalescer.coalesced": {coalesced, "count"},
		"feam.coalescer.hit_rate":  {ratio(coalesced, leads+coalesced), "ratio"},
	}
}

func (s *servingStack) observed() []Observed {
	eng := s.srv.Engine()
	return []Observed{{Tracer: eng.Tracer(), Metrics: eng.Metrics()}}
}

func (s *servingStack) attachSink(sink obs.Sink) { s.srv.Engine().Tracer().AddSink(sink) }

// close shuts the listener and every connection and waits for the serve
// loop to return.
func (s *servingStack) close() {
	s.client.CloseIdleConnections()
	_ = s.hs.Close()
	<-s.done
}

// predictAnswer is the part of a /v1/predict answer the oracles check.
type predictAnswer struct {
	Site  string `json:"site"`
	Ready bool   `json:"ready"`
}

type predictEnvelope struct {
	Data json.RawMessage `json:"data"`
}
