package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"feam/internal/execsim"
	"feam/internal/experiment"
	"feam/internal/feam"
	"feam/internal/testbed"
)

// goldenChunk bounds how many binaries one experiment run migrates while
// the golden table is generated: staged library copies accumulate in the
// testbed, so each chunk gets a fresh one to keep memory small.
const goldenChunk = 24

// generateGolden records every migration pair's outcome of the full test
// set through experiment.RunWithEngine:
//
//	perfbench --gen-golden perfbench/testdata/matrix_golden.json
func generateGolden(ctx context.Context, path string, log io.Writer) error {
	g := golden{SimSeed: matrixSimSeed}
	for start := 0; ; start += goldenChunk {
		tb, err := testbed.Build()
		if err != nil {
			return err
		}
		sim := execsim.NewSimulator(matrixSimSeed)
		ts, err := experiment.BuildTestSet(tb, sim)
		if err != nil {
			return err
		}
		if start == 0 {
			for _, b := range ts.Binaries {
				g.Binaries = append(g.Binaries, goldenBinary{
					Name: b.ID(), Code: b.Code.Name, Suite: b.Code.Suite.String(),
					Site: b.BuildSite, Stack: b.StackKey,
				})
			}
		}
		if start >= len(ts.Binaries) {
			break
		}
		end := min(start+goldenChunk, len(ts.Binaries))
		sub := &experiment.TestSet{Binaries: ts.Binaries[start:end]}
		ev, err := experiment.RunWithEngine(ctx, feam.New(feam.WithWorkers(fanout())), tb, sub, sim, fanout())
		if err != nil {
			return err
		}
		for _, p := range ev.Pairs {
			g.Pairs = append(g.Pairs, goldenPair{
				Binary: p.Bin.ID(), Target: p.Target,
				Basic: p.Basic.Ready, Extended: p.Extended.Ready,
				Before: p.ActualBefore.Success(), After: p.ActualAfter.Success(),
			})
		}
		fmt.Fprintf(log, "golden: binaries %d-%d of %d, %d pairs so far\n", start, end, len(ts.Binaries), len(g.Pairs))
		releaseMemory()
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	//lint:ignore vfsonly the golden table is a file of the checkout, not a site filesystem
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	//lint:ignore vfsonly the golden table is a file of the checkout, not a site filesystem
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
