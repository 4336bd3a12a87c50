package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"

	"feam/internal/obs"
	"feam/internal/scenario"
)

// serve-hot: single POST /v1/predict requests with the server's built-in
// probe binary against the isa-mix fleet. Sites rotate in a seeded order
// and a seeded one-in-four share goes to one hot site, a seeded draw
// among the x86_64 sites. The oracle: ready
// exactly where the fleet spec gives the site an x86_64 ISA.

const hotRequests = 8192

type hotInputs struct {
	spec   scenario.FleetSpec
	sites  []string        // request sequence, by site
	bodies [][]byte        // request bodies, parallel to sites
	ready  map[string]bool // oracle: site → expected readiness
	all    []string        // every fleet site, sorted
}

// hotPlan builds serve-hot's inputs from the fleet spec and the seed.
func hotPlan(spec scenario.FleetSpec, seed int64) (*hotInputs, error) {
	specs, err := scenario.ExpandFleet(spec)
	if err != nil {
		return nil, err
	}
	in := &hotInputs{spec: spec, ready: map[string]bool{}}
	for _, s := range specs {
		in.ready[s.Name] = s.ISA == "x86_64"
		in.all = append(in.all, s.Name)
	}
	sort.Strings(in.all)
	rng := rand.New(rand.NewSource(seed))
	order := append([]string(nil), in.all...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	// The hot site is a seeded draw among the ready sites: the popular
	// target is one that can run the binary, so every hot request runs the
	// full determinant ladder.
	var readySites []string
	for _, name := range in.all {
		if in.ready[name] {
			readySites = append(readySites, name)
		}
	}
	if len(readySites) == 0 {
		return nil, fmt.Errorf("fleet has no x86_64 site")
	}
	hot := readySites[rng.Intn(len(readySites))]
	for i, j := 0, 0; i < hotRequests; i++ {
		site := hot
		if rng.Intn(4) != 0 {
			site = order[j%len(order)]
			j++
		}
		body, err := json.Marshal(map[string]string{"site": site, "name": "app"})
		if err != nil {
			return nil, err
		}
		in.sites = append(in.sites, site)
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

var serveHot = Workload{
	Prepare: func(_ context.Context, p Params) (any, error) {
		spec, err := loadFleet(p)
		if err != nil {
			return nil, err
		}
		return hotPlan(spec, p.Seed)
	},
	Setup: func(_ context.Context, p Params, prepared any) (Instance, error) {
		in := prepared.(*hotInputs)
		clients := fanout()
		st, err := startServing(in.spec, p.Seed, clients)
		if err != nil {
			return nil, err
		}
		h := &hotInstance{in: in, st: st, next: make([]int, clients)}
		// Each client starts at its own offset of the shared sequence.
		for c := range h.next {
			h.next[c] = c * len(in.sites) / clients
		}
		return h, nil
	},
}

type hotInstance struct {
	in   *hotInputs
	st   *servingStack
	next []int // per-client position in the request sequence
	// rec turns on the server-layer samples; only the traced half of a
	// traced run reports them.
	rec bool
}

func (h *hotInstance) Clients() int { return len(h.next) }

// Warmup asks once about every site (surveys land in the registry) and
// then runs a pass of the request sequence to settle connections.
func (h *hotInstance) Warmup(ctx context.Context) error {
	for _, site := range h.in.all {
		body, _ := json.Marshal(map[string]string{"site": site, "name": "app"})
		status, data, _, err := h.st.post(ctx, 0, body, false)
		if err != nil {
			return err
		}
		if ok, detail := checkHot(h.in.ready, site, status, data); !ok {
			return fmt.Errorf("warm-up answer wrong: %s", detail)
		}
	}
	for i := 0; i < len(h.in.sites)/4; i++ {
		if r := h.Op(ctx, 0); !r.OK {
			return fmt.Errorf("warm-up answer wrong: %s", r.Detail)
		}
	}
	return nil
}

func (h *hotInstance) Op(ctx context.Context, c int) OpResult {
	i := h.next[c] % len(h.in.sites)
	h.next[c]++
	status, data, lat, err := h.st.post(ctx, c, h.in.bodies[i], h.rec)
	if err != nil {
		return OpResult{Elapsed: lat, Detail: err.Error()}
	}
	ok, detail := checkHot(h.in.ready, h.in.sites[i], status, data)
	return OpResult{Elapsed: lat, OK: ok, Detail: detail}
}

// checkHot is serve-hot's oracle: a 200 answer for the asked site whose
// readiness matches the fleet spec's ISA.
func checkHot(ready map[string]bool, site string, status int, data []byte) (bool, string) {
	if status != http.StatusOK {
		return false, fmt.Sprintf("%s: HTTP %d: %s", site, status, data)
	}
	var env predictEnvelope
	var ans predictAnswer
	if err := json.Unmarshal(data, &env); err != nil {
		return false, fmt.Sprintf("%s: %v", site, err)
	}
	if err := json.Unmarshal(env.Data, &ans); err != nil {
		return false, fmt.Sprintf("%s: %v", site, err)
	}
	if ans.Site != site || ans.Ready != ready[site] {
		return false, fmt.Sprintf("%s: answered site %s ready=%v, want ready=%v", site, ans.Site, ans.Ready, ready[site])
	}
	return true, ""
}

func (h *hotInstance) Observed() []Observed         { return h.st.observed() }
func (h *hotInstance) Layers(int) map[string]Metric { return h.st.layers() }
func (h *hotInstance) AttachSink(sink obs.Sink) {
	h.st.attachSink(sink)
	h.rec = true
}
func (h *hotInstance) ResetLayers() { h.st.resetLayers() }
func (h *hotInstance) Close()       { h.st.close() }
