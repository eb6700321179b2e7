package coord

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"neesgrid/internal/core"
	"neesgrid/internal/structural"
)

func pipelineSprings() []structural.Element {
	return []structural.Element{
		structural.NewLinearElastic(900),
		structural.NewLinearElastic(1100),
	}
}

func runPipelineConfig(t *testing.T, cfg Config) (*structural.History, *Report) {
	t.Helper()
	h := newHarness(t, pipelineSprings(), nil)
	c, err := New(cfg, h.coordSites(core.DefaultRetry)...)
	if err != nil {
		t.Fatal(err)
	}
	hist, report, err := c.Run(context.Background())
	if err != nil || !report.Completed {
		t.Fatalf("run = %+v, %v", report, err)
	}
	return hist, report
}

func TestPipelinedMatchesBaselineWithinTolerance(t *testing.T) {
	// The pipelined protocol executes the PREDICTED displacement whenever
	// the prediction holds, so the trajectory may drift from the baseline —
	// but never beyond what the speculation tolerance allows per step.
	const steps = 100
	base, _ := runPipelineConfig(t, sdofConfig(100, 2000, steps))
	cfg := sdofConfig(100, 2000, steps)
	cfg.Pipeline = true
	hist, report := runPipelineConfig(t, cfg)

	peak := base.PeakDisplacement(0)
	if peak <= 0 {
		t.Fatal("flat baseline")
	}
	for i := range base.States {
		diff := math.Abs(hist.States[i].D[0] - base.States[i].D[0])
		if diff > 0.02*peak {
			t.Fatalf("step %d: pipelined %g vs baseline %g (diff %g, peak %g)",
				i, hist.States[i].D[0], base.States[i].D[0], diff, peak)
		}
	}
	// A smooth sine at dt=0.01 predicts well: the run must be dominated by
	// single-envelope hit steps, not rollbacks.
	hits := report.Telemetry.Counters["coord.pipeline.hits"]
	miss := report.Telemetry.Counters["coord.pipeline.mispredicts"]
	if hits < steps/2 {
		t.Fatalf("pipeline hits = %d of %d steps (mispredicts %d)", hits, steps, miss)
	}
}

func TestPipelinedForcedRollbackIsBitExact(t *testing.T) {
	// A negative tolerance voids every prediction, so each step rolls back
	// and re-proposes at the ACTUAL displacement — the trajectory must then
	// be bit-identical to the classic protocol. This is the exactness knob
	// (and it exercises the rollback + revision path on every step).
	const steps = 60
	base, _ := runPipelineConfig(t, sdofConfig(100, 2000, steps))
	cfg := sdofConfig(100, 2000, steps)
	cfg.Pipeline = true
	cfg.PipelineTolerance = -1
	hist, report := runPipelineConfig(t, cfg)

	for i := range base.States {
		if hist.States[i].D[0] != base.States[i].D[0] || hist.States[i].F[0] != base.States[i].F[0] {
			t.Fatalf("step %d: forced-rollback pipelined run diverged from baseline", i)
		}
	}
	if report.Telemetry.Counters["coord.pipeline.hits"] != 0 {
		t.Fatal("negative tolerance must never record a hit")
	}
	if report.Telemetry.Counters["coord.pipeline.mispredicts"] == 0 {
		t.Fatal("no rollbacks recorded")
	}
}

func TestPipelinedRejectionAborts(t *testing.T) {
	pol := []*core.SitePolicy{{PointLimits: map[string]core.Limits{
		"drift": {MaxDisplacement: 1e-9},
	}}}
	h := newHarness(t, []structural.Element{structural.NewLinearElastic(1000)}, pol)
	cfg := sdofConfig(100, 1000, 30)
	cfg.Pipeline = true
	c, err := New(cfg, h.coordSites(core.DefaultRetry)...)
	if err != nil {
		t.Fatal(err)
	}
	_, report, err := c.Run(context.Background())
	if err == nil || report.Completed {
		t.Fatalf("pipelined run should abort on rejection: %+v", report)
	}
	if !IsRejection(err) {
		t.Fatalf("err = %v, want rejection", err)
	}
	if !errors.Is(err, core.ErrRejected) {
		t.Fatalf("err = %v, want core.ErrRejected identity", err)
	}
}

func TestPipelinedRecoversTransientFaults(t *testing.T) {
	h := newHarness(t, []structural.Element{structural.NewLinearElastic(1000)}, nil)
	cfg := sdofConfig(100, 1000, 60)
	cfg.Pipeline = true
	cfg.OnStep = func(st structural.State) {
		if st.Step == 20 || st.Step == 40 {
			h.sites[0].injector.FailNext(2)
		}
	}
	c, err := New(cfg, h.coordSites(core.DefaultRetry)...)
	if err != nil {
		t.Fatal(err)
	}
	_, report, err := c.Run(context.Background())
	if err != nil || !report.Completed {
		t.Fatalf("report = %+v, %v", report, err)
	}
	if report.Recovered == 0 {
		t.Fatal("pipelined run did not recover injected faults")
	}
}

// Checkpoint/resume under the pipelined protocol with forced rollback: the
// crash leaves an orphaned speculative proposal at the site, holding the
// dead incarnation's PREDICTED displacement. The resumed run must cancel
// that stale accept (the displacement-mismatch guard), walk to a revision,
// and still reproduce the classic trajectory bit-for-bit on a hysteretic
// (path-dependent) specimen.
func TestPipelinedCheckpointResumeExact(t *testing.T) {
	// Kill at the step right after a checkpoint: the dead incarnation's
	// last batch accepted a speculation for step 31, so the resumed run's
	// very first propose replays that stale accept.
	const steps, killAt = 60, 31

	refH := newHarness(t, []structural.Element{bilinearElement()}, nil)
	refHist, _ := mustRun(t, checkpointConfig(steps), refH.coordSites(core.DefaultRetry))

	h := newHarness(t, []structural.Element{bilinearElement()}, nil)
	path := filepath.Join(t.TempDir(), "coord.ckpt")
	mkCfg := func() Config {
		cfg := checkpointConfig(steps)
		cfg.Pipeline = true
		cfg.PipelineTolerance = -1 // exactness mode: every step executes the actual displacement
		cfg.Checkpoint = &CheckpointConfig{Path: path, Every: 10}
		return cfg
	}
	killErr := errors.New("chaos: scheduled coordinator kill")
	cfg := mkCfg()
	cfg.Interrupt = func(s int) error {
		if s == killAt {
			return killErr
		}
		return nil
	}
	sites := h.coordSites(core.DefaultRetry)
	c1, err := New(cfg, sites...)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c1.Run(context.Background()); !errors.Is(err, killErr) {
		t.Fatalf("run error = %v, want the interrupt error", err)
	}

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := mkCfg()
	cfg2.Resume = cp
	hist2, rep2 := mustRun(t, cfg2, sites)
	if !rep2.Completed || rep2.StepsCompleted != steps {
		t.Fatalf("resumed report = %+v", rep2)
	}
	for _, st := range hist2.States {
		if !sameState(refHist.States[st.Step], st) {
			t.Fatalf("post-resume step %d diverged from reference:\nref %+v\ngot %+v",
				st.Step, refHist.States[st.Step], st)
		}
	}
	// The dead incarnation's orphaned speculation replayed as a stale
	// accept; the guard must have cancelled it rather than execute the
	// wrong displacement.
	if got := rep2.Telemetry.Counters["coord.proposals.stale_cancelled"]; got == 0 {
		t.Fatal("stale speculative accept was never cancelled on resume")
	}
}
