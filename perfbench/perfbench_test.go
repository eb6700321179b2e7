package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"neesgrid/internal/most"
	"neesgrid/internal/structural"
)

// plantedSteps keeps each traced run short; the span window holds about
// 430 classic steps anyway.
const plantedSteps = 500

// tracedHybrid runs most-hybrid-lan traced with extra delay on the cu
// site and returns its per-layer metrics, critical-path shares and
// commit-to-commit step p50 in ms. cu (the xPC rig) has the slowest
// execute, so it is on the critical path of both classic phases and each
// round trip's extra delay adds to the step.
func tracedHybrid(t *testing.T, extra time.Duration) (map[string]metric, map[string]float64, float64) {
	t.Helper()
	spec, err := hybridLANSpec(DefaultSeed, "")
	if err != nil {
		t.Fatal(err)
	}
	spec.Steps = plantedSteps
	var stamps []time.Time
	spec.OnStep = func(structural.State) { stamps = append(stamps, time.Now()) }
	probe := &stepProbe{inner: structural.NewExplicitNewmark()}
	spec.Integrator = probe
	exp, err := most.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := exp.Stop(); err != nil {
			t.Error(err)
		}
	}()
	cu, ok := exp.Site("cu")
	if !ok {
		t.Fatal("no cu site")
	}
	cu.Injector.SetExtraDelay(extra)
	r, err := exp.Run(context.Background())
	if err != nil || r.Err != nil || committed(r) != plantedSteps {
		t.Fatalf("run: %v / %v, %d steps", err, r.Err, committed(r))
	}
	l, err := analyseMost(exp, spec, r, probe)
	if err != nil {
		t.Fatal(err)
	}
	res := newResult("most-hybrid-lan", DefaultSeed)
	l.fill(res)
	var ms []float64
	for i := 1; i < len(stamps); i++ {
		ms = append(ms, float64(stamps[i].Sub(stamps[i-1]))/float64(time.Millisecond))
	}
	return res.Layers, l.shares, quantile(ms, 0.5)
}

func TestPlantedDelay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the hybrid topology ten times")
	}
	const extra = time.Millisecond
	type run struct {
		layers map[string]metric
		shares map[string]float64
		p50    float64
	}
	var base, planted []run
	for i := 0; i < 5; i++ { // interleaved, so machine drift hits both sides
		l, s, p := tracedHybrid(t, 0)
		base = append(base, run{l, s, p})
		l, s, p = tracedHybrid(t, extra)
		planted = append(planted, run{l, s, p})
	}
	// moved is the median over the pairs of planted minus base: each pair
	// ran back to back, so a drift of the machine cancels within it.
	moved := func(f func(run) float64) float64 {
		d := make([]float64, len(base))
		for i := range base {
			d[i] = f(planted[i]) - f(base[i])
		}
		return median(d)
	}
	baseMedian := func(f func(run) float64) float64 {
		xs := make([]float64, len(base))
		for i, r := range base {
			xs[i] = f(r)
		}
		return median(xs)
	}
	p50 := func(r run) float64 { return r.p50 }
	delay := func(r run) float64 { return r.layers["faultnet.delay_ms_per_step"].Value }
	unexplained := func(r run) float64 { return r.layers["reconcile.unexplained_us.p50"].Value / 1000 }

	rise, delayRise := moved(p50), moved(delay)
	for i := range base {
		t.Logf("pair %d: step_ms_p50 %.3f -> %.3f", i, base[i].p50, planted[i].p50)
	}
	t.Logf("step_ms_p50 rise %.3f ms; faultnet.delay_ms_per_step rise %.3f ms", rise, delayRise)

	// A sanity check on the phase count: faultnet annotates each client
	// span with the configured delay, not the time waited, so this only
	// confirms that the planted delay is seen on both classic phases.
	if math.Abs(delayRise-2) > 0.05 {
		t.Errorf("faultnet.delay_ms_per_step rose by %.3f ms, want 2 (two classic phases)", delayRise)
	}
	// The attribution itself: the measured step rise is the delay rise.
	// A sleep overrun, or time the delay moved into another layer, would
	// raise the step by more; it shows here and in the per-layer checks
	// below. The step may rise by somewhat less: where cu was not already
	// the last site of a phase, the delay first uses up its slack, and on
	// a busy 2-CPU machine the sleep frees CPU for the other sites.
	if d := rise - delayRise; d > 0.3 || d < -0.5 {
		t.Errorf("step_ms_p50 rose by %.3f ms, not accounted for by the delay rise %.3f ms", rise, delayRise)
	}
	// Every other critical-path layer, and the remainder, stays put.
	for layer := range base[0].shares {
		if layer == "faultnet.delay" || layer == "step" {
			continue
		}
		share := func(r run) float64 { return r.shares[layer] / 1000 }
		b, m := baseMedian(share), moved(share)
		if tol := math.Max(0.3, 0.25*b); math.Abs(m) > tol {
			t.Errorf("layer %s moved by %.3f ms per step from %.3f (tolerance %.3f)", layer, m, b, tol)
		}
	}
	if m := moved(unexplained); math.Abs(m) > 0.3 {
		t.Errorf("reconcile.unexplained_us.p50 moved by %.3f ms from %.3f", m, baseMedian(unexplained))
	}
}

// TestMetricNames keeps BENCHMARK.json and the program in step.
func TestMetricNames(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		if b.EndToEnd[i].Name != m.name || b.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %+v, program has %s %s", i, b.EndToEnd[i], m.name, m.unit)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, name := range layerMetrics {
		if b.PerLayer[i].Name != name || b.PerLayer[i].Unit != layerUnit(name) {
			t.Errorf("per_layer[%d] = %+v, program has %s %s", i, b.PerLayer[i], name, layerUnit(name))
		}
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
}

// TestFanoutChecks runs short nsds-fanout and fleet runs, untraced and
// traced, and requires every check to pass and every metric to be set.
func TestFanoutChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the nsds and fleet topologies")
	}
	for _, name := range []string{"nsds-fanout", "fleet"} {
		for _, traced := range []bool{false, true} {
			opts := options{workload: name, seed: HoldOutSeed, seconds: time.Second, trace: traced, out: t.TempDir()}
			res, err := workloads[name](opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(res.Checks) > 0 || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: checks %v, %d of %d failed", name, traced, res.Checks, res.Failed, res.Attempted)
			}
			got := res.EndToEnd
			want := len(endToEndMetrics)
			if traced {
				got, want = res.Layers, len(layerMetrics)
			}
			if len(got) != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(got), want)
			}
			for _, m := range endToEndMetrics {
				if !traced && !(res.EndToEnd[m.name].Value > 0) {
					t.Errorf("%s: %s = %v, want > 0", name, m.name, res.EndToEnd[m.name].Value)
				}
			}
		}
	}
}
