package experiment

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"feam/internal/execsim"
	"feam/internal/feam"
)

func TestForEachRace(t *testing.T) {
	var count int64
	err := forEach(1000, 8, func(i int) error {
		atomic.AddInt64(&count, 1)
		return nil
	})
	if err != nil || count != 1000 {
		t.Fatalf("count=%d err=%v", count, err)
	}
}

func TestParallelRunRaceSmall(t *testing.T) {
	tb := smallTestbed(t)
	sim := execsim.NewSimulator(7)
	ts, err := BuildTestSet(tb, sim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWithConcurrency(tb, ts, sim, 4); err != nil {
		t.Fatal(err)
	}
}

// TestSharedEngineRace drives a full concurrent experiment and concurrent
// site rankings through ONE engine at the same time. Under -race this
// exercises the BDC/EDC caches, the per-site locks and the observer list
// from every direction at once.
func TestSharedEngineRace(t *testing.T) {
	tb := smallTestbed(t)
	sim := execsim.NewSimulator(7)
	ts, err := BuildTestSet(tb, sim)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Binaries) == 0 {
		t.Fatal("empty test set")
	}
	bin := ts.Binaries[0]

	ctx := context.Background()
	eng := feam.New()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := RunWithEngine(ctx, eng, tb, ts, sim, 4); err != nil {
			errs <- err
		}
	}()
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			desc, err := eng.Describe(ctx, bin.Artifact.Bytes, bin.Path)
			if err != nil {
				errs <- err
				return
			}
			ranked := eng.RankSitesParallel(ctx, desc, bin.Artifact.Bytes, tb.Sites,
				feam.EvalOptions{Runner: NewSimRunner(sim)}, len(tb.Sites))
			for _, a := range ranked {
				if a.Err != nil {
					errs <- a.Err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestConcurrentRunsShareEngine runs two RunWithEngine calls at once over
// one engine and one testbed, the way a load generator with several
// clients does. Each run reads every batch system's CPU-hour accounting
// after its pairs finish, while the other run may still be submitting
// probe jobs under a target's site lock; under -race this covers that
// accounting. The test set is trimmed to a few binaries to stay cheap.
func TestConcurrentRunsShareEngine(t *testing.T) {
	tb := smallTestbed(t)
	sim := execsim.NewSimulator(7)
	full, err := BuildTestSet(tb, sim)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Binaries) < 4 {
		t.Fatalf("test set has %d binaries", len(full.Binaries))
	}
	eng := feam.New()
	sets := []*TestSet{
		{Binaries: full.Binaries[:2]},
		{Binaries: full.Binaries[2:4]},
	}
	errs := make([]error, len(sets))
	var wg sync.WaitGroup
	for i, ts := range sets {
		wg.Add(1)
		go func(i int, ts *TestSet) {
			defer wg.Done()
			for round := 0; round < 2 && errs[i] == nil; round++ {
				var ev *Evaluation
				ev, errs[i] = RunWithEngine(context.Background(), eng, tb, ts, sim, 2)
				if errs[i] == nil && len(ev.ProbeCPUHours) != len(tb.Clusters) {
					errs[i] = fmt.Errorf("accounting covers %d of %d clusters", len(ev.ProbeCPUHours), len(tb.Clusters))
				}
			}
		}(i, ts)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
