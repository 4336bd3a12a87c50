package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"feam/internal/abicheck"
	"feam/internal/obs"
	"feam/internal/scenario"
)

func newTestServer(t *testing.T) *Server {
	t.Helper()
	s, err := New(Config{Fleet: scenario.FleetSpec{Base: scenario.FleetBaseTable2}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// predictEnvelope is the wire shape of a single /v1/predict answer with
// the data half bound to its concrete type.
type predictEnvelope struct {
	Data  *PredictResponse `json:"data"`
	Error *APIError        `json:"error"`
}

func postPredict(t *testing.T, url string, body string) (int, predictEnvelope) {
	t.Helper()
	resp, err := http.Post(url+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/predict: %v", err)
	}
	defer resp.Body.Close()
	var env predictEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding predict response: %v", err)
	}
	return resp.StatusCode, env
}

func getSites(t *testing.T, url string) (int, SitesPage, *APIError) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var env struct {
		Data  SitesPage `json:"data"`
		Error *APIError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding sites page: %v", err)
	}
	return resp.StatusCode, env.Data, env.Error
}

// TestSitesEndpoint: the fleet listing is complete, sorted, and carries
// the inventory fields operators select sites by.
func TestSitesEndpoint(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, page, apiErr := getSites(t, ts.URL+"/v1/sites")
	if status != http.StatusOK || apiErr != nil {
		t.Fatalf("GET /v1/sites = %d (%+v), want 200", status, apiErr)
	}
	if len(page.Sites) != s.Sites() {
		t.Fatalf("listed %d sites, want %d", len(page.Sites), s.Sites())
	}
	if page.NextCursor != "" {
		t.Errorf("unpaginated listing carries next_cursor %q", page.NextCursor)
	}
	for i := 1; i < len(page.Sites); i++ {
		if page.Sites[i-1].Name >= page.Sites[i].Name {
			t.Errorf("sites out of order: %q before %q", page.Sites[i-1].Name, page.Sites[i].Name)
		}
	}
	for _, si := range page.Sites {
		if si.Arch == "" || si.Glibc == "" || si.Cores == 0 {
			t.Errorf("site %s missing inventory fields: %+v", si.Name, si)
		}
	}
}

// TestSitesPagination: walking ?limit/?cursor pages reassembles exactly the
// unpaginated listing, and a bad limit is a machine-readable bad_request.
func TestSitesPagination(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, full, _ := getSites(t, ts.URL+"/v1/sites")
	var walked []SiteInfo
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > len(full.Sites) {
			t.Fatalf("pagination did not terminate after %d pages", pages)
		}
		url := ts.URL + "/v1/sites?limit=2"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		status, page, apiErr := getSites(t, url)
		if status != http.StatusOK || apiErr != nil {
			t.Fatalf("paged GET /v1/sites = %d (%+v), want 200", status, apiErr)
		}
		if len(page.Sites) > 2 {
			t.Fatalf("page of %d sites exceeds limit 2", len(page.Sites))
		}
		walked = append(walked, page.Sites...)
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(walked) != len(full.Sites) {
		t.Fatalf("pagination walked %d sites, want %d", len(walked), len(full.Sites))
	}
	for i := range walked {
		if walked[i] != full.Sites[i] {
			t.Errorf("walked[%d] = %+v, want %+v", i, walked[i], full.Sites[i])
		}
	}

	status, _, apiErr := getSites(t, ts.URL+"/v1/sites?limit=bogus")
	if status != http.StatusBadRequest || apiErr == nil || apiErr.Code != CodeBadRequest {
		t.Errorf("bad limit = %d (%+v), want 400 %s", status, apiErr, CodeBadRequest)
	}
}

// TestSurveyEndpoint: surveys serve the discovered environment and repeat
// surveys are fingerprint-gated — one discover span no matter how often
// the endpoint is hit.
func TestSurveyEndpoint(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/v1/survey/india")
		if err != nil {
			t.Fatalf("GET /v1/survey/india: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/survey/india = %d: %s", resp.StatusCode, body)
		}
		var env struct {
			Data  map[string]any `json:"data"`
			Error *APIError      `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("survey is not JSON: %v", err)
		}
		if len(env.Data) == 0 || env.Error != nil {
			t.Fatalf("survey envelope = %+v, want non-empty data and no error", env)
		}
	}
	if got := s.Engine().Metrics().Histogram(obs.OpDiscover).Count(); got != 1 {
		t.Errorf("discover spans after 3 surveys = %d, want 1", got)
	}

	resp, err := http.Get(ts.URL + "/v1/survey/nonesuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/survey/nonesuch = %d, want 404", resp.StatusCode)
	}
}

// TestPredictRepeatIdentical: the ISSUE acceptance check — repeated
// identical predict requests produce exactly one discover span, whether
// they arrive sequentially (survey cache) or concurrently (coalescer +
// survey cache).
func TestPredictRepeatIdentical(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const K = 12
	var wg sync.WaitGroup
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json",
				strings.NewReader(`{"site":"india","name":"app"}`))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, body)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := s.Engine().Metrics().Histogram(obs.OpDiscover).Count(); got != 1 {
		t.Errorf("discover spans after %d identical predicts = %d, want 1", K, got)
	}
	st := s.CoalescerStats()
	if st.Leads+st.Coalesced != K {
		t.Errorf("coalescer saw %d+%d requests, want %d", st.Leads, st.Coalesced, K)
	}
}

// TestPredictSingle: a lone request answers with the determinant ladder
// and a readiness verdict.
func TestPredictSingle(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, env := postPredict(t, ts.URL, `{"site":"india"}`)
	if status != http.StatusOK || env.Error != nil || env.Data == nil {
		t.Fatalf("predict = %d (%+v), want 200 with data", status, env.Error)
	}
	if env.Data.Site != "india" || env.Data.Binary != "app" {
		t.Errorf("predict identity = %q/%q, want india/app", env.Data.Site, env.Data.Binary)
	}
	if len(env.Data.Determinants) == 0 {
		t.Error("predict returned no determinant outcomes")
	}

	status, env = postPredict(t, ts.URL, `{"site":"nonesuch"}`)
	if status != http.StatusNotFound || env.Error == nil || env.Error.Code != CodeNotFound {
		t.Errorf("unknown-site predict = %d %+v, want 404 %s", status, env.Error, CodeNotFound)
	}

	status, env = postPredict(t, ts.URL, `{"site":"india","binary_b64":"!!!"}`)
	if status != http.StatusBadRequest || env.Error == nil || env.Error.Code != CodeBadRequest {
		t.Errorf("bad base64 predict = %d %+v, want 400 %s", status, env.Error, CodeBadRequest)
	}
}

// TestPredictBatch: batched requests fan out and every entry answers at
// its input index; a bad entry fails in place without sinking the batch.
func TestPredictBatch(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var reqs []string
	for i := 0; i < 3; i++ {
		reqs = append(reqs, `{"site":"india","name":"app"}`)
	}
	reqs = append(reqs, `{"site":"nonesuch"}`)
	body := `{"requests":[` + strings.Join(reqs, ",") + `]}`

	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch predict = %d: %s", resp.StatusCode, raw)
	}
	var env struct {
		Data  batchResponse `json:"data"`
		Error *APIError     `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decoding batch: %v", err)
	}
	br := env.Data
	if len(br.Results) != 4 {
		t.Fatalf("batch returned %d results, want 4", len(br.Results))
	}
	for i := 0; i < 3; i++ {
		if br.Results[i].Error != nil {
			t.Errorf("results[%d] failed: %+v", i, br.Results[i].Error)
		}
		if br.Results[i].Data == nil || br.Results[i].Data.Site != "india" {
			t.Errorf("results[%d] = %+v, want data for india", i, br.Results[i])
		}
	}
	if br.Results[3].Error == nil || br.Results[3].Error.Code != CodeNotFound {
		t.Errorf("results[3] (unknown site) = %+v, want %s", br.Results[3].Error, CodeNotFound)
	}
}

// TestGracefulDrainAndCommit: cancelling the serve context must not cut
// an in-flight prediction — Serve drains it to a 200 — and the follow-up
// Commit persists the fleet inventory and a clean-shutdown manifest.
func TestGracefulDrainAndCommit(t *testing.T) {
	s := newTestServer(t)

	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/predict" {
			once.Do(func() { close(entered) })
			<-gate
		}
		s.Handler().ServeHTTP(w, r)
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewHTTPServer(ln.Addr().String(), slow)
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- Serve(ctx, srv, ln, 30*time.Second) }()

	reqDone := make(chan error, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/predict",
			"application/json", bytes.NewReader([]byte(`{"site":"india"}`)))
		if err != nil {
			reqDone <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			reqDone <- fmt.Errorf("status %d: %s", resp.StatusCode, raw)
			return
		}
		reqDone <- nil
	}()

	<-entered
	cancel() // SIGTERM equivalent: stop accepting, drain in-flight

	select {
	case err := <-serveDone:
		t.Fatalf("Serve returned %v before the in-flight request finished", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(gate)
	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight request during shutdown: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve = %v, want nil after clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}

	if err := s.Commit(context.Background()); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	names, err := s.Engine().StoredSites()
	if err != nil {
		t.Fatalf("StoredSites: %v", err)
	}
	if len(names) != s.Sites() {
		t.Errorf("committed %d site records, want %d", len(names), s.Sites())
	}
	raw, ok, err := s.st.Get("server", "manifest")
	if err != nil || !ok {
		t.Fatalf("manifest record: ok=%v err=%v", ok, err)
	}
	var manifest map[string]any
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatalf("manifest JSON: %v", err)
	}
	if manifest["clean_shutdown"] != true {
		t.Errorf("manifest = %v, want clean_shutdown true", manifest)
	}
}

// TestABIEndpoint: /v1/abi/{site} resolves the built-in probe against the
// site's symbol index — per-symbol verdicts, agreement attached — and
// repeat hits are served from the cached index (one sym_index span).
func TestABIEndpoint(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/v1/abi/india")
		if err != nil {
			t.Fatalf("GET /v1/abi/india: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/abi/india = %d: %s", resp.StatusCode, body)
		}
		var env struct {
			Data  *abicheck.Report `json:"data"`
			Error *APIError        `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("abi report is not JSON: %v", err)
		}
		r := env.Data
		if r == nil || env.Error != nil {
			t.Fatalf("abi envelope = %+v, want report data and no error", env)
		}
		if r.Site != "india" || r.Total == 0 || len(r.Symbols) != r.Total {
			t.Fatalf("report shape wrong: %+v", r)
		}
		if !r.OK() {
			t.Fatalf("built-in probe should resolve everywhere: %s", r.Summary())
		}
		if r.Agreement == nil || !r.Agreement.Agree {
			t.Fatalf("agreement missing or negative: %+v", r.Agreement)
		}
	}
	if got := s.Engine().Metrics().Histogram(obs.OpSymIndex).Count(); got != 1 {
		t.Errorf("sym_index builds after 2 hits = %d, want 1", got)
	}

	resp, err := http.Get(ts.URL + "/v1/abi/nonesuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/abi/nonesuch = %d, want 404", resp.StatusCode)
	}
}

// TestPredictBodyLimit: a /v1/predict body over twice MaxBinaryBytes is
// refused with 413 payload_too_large — whether it is one oversized batch
// or one byte too many — while a body of exactly the limit is served.
func TestPredictBodyLimit(t *testing.T) {
	const maxBin = 64
	const limit = 2 * maxBin
	s, err := New(Config{Fleet: scenario.FleetSpec{Base: scenario.FleetBaseTable2}, MaxBinaryBytes: maxBin})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	single := `{"site":"india"}`
	pad := func(n int) string { return single + strings.Repeat(" ", n-len(single)) }
	var entries []string
	for i := 0; i < 10; i++ {
		entries = append(entries, single)
	}
	batch := `{"requests":[` + strings.Join(entries, ",") + `]}`
	if len(batch) <= limit {
		t.Fatalf("batch of %d bytes does not exceed the %d-byte limit", len(batch), limit)
	}
	for _, tc := range []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"batch over the limit", batch, http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"one byte over the limit", pad(limit + 1), http.StatusRequestEntityTooLarge, CodeTooLarge},
		{"exactly at the limit", pad(limit), http.StatusOK, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, env := postPredict(t, ts.URL, tc.body)
			if status != tc.status {
				t.Fatalf("status = %d (%+v), want %d", status, env.Error, tc.status)
			}
			if tc.code == "" {
				if env.Error != nil || env.Data == nil {
					t.Errorf("want data and no error, got %+v", env.Error)
				}
				return
			}
			if env.Error == nil || env.Error.Code != tc.code {
				t.Errorf("error = %+v, want code %s", env.Error, tc.code)
			}
		})
	}
}
