package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"time"

	"neesgrid/internal/coord"
	"neesgrid/internal/faultnet"
	"neesgrid/internal/groundmotion"
	"neesgrid/internal/gsi"
	"neesgrid/internal/most"
	"neesgrid/internal/structural"
)

// mostSteps is the paper's run length: 1,500 steps of 0.01 s.
const mostSteps = 1500

// stretchSteps is the length of the stretches ops_per_s and cpu_ms_per_op
// take their medians over: six per 1,500-step experiment.
const stretchSteps = 250

// wanLatency is the one-way delay injected on every site of
// most-wan-pipelined.
const wanLatency = 5 * time.Millisecond

// hybridLANSpec is the Fig. 9 topology with classic barriers, no injected
// delay, a DAQ scan every step and no checkpoint.
func hybridLANSpec(seed int64, _ string) (most.Spec, error) {
	spec := most.DryRunSpec(most.VariantHybrid)
	spec.DAQEvery = 1
	return withGround(spec, seed)
}

// wanPipelinedSpec is the all-simulation topology behind a deterministic
// 5 ms one-way WAN, pipelined, checkpointing and scanning every step.
func wanPipelinedSpec(seed int64, dir string) (most.Spec, error) {
	spec := most.DryRunSpec(most.VariantSimulation)
	for i := range spec.Sites {
		spec.Sites[i].WAN = faultnet.Profile{Latency: wanLatency}
	}
	spec.Pipeline = true
	spec.DAQEvery = 1
	spec.Checkpoint = &coord.CheckpointConfig{Path: filepath.Join(dir, "checkpoint.json"), Every: 1}
	return withGround(spec, seed)
}

// withGround sets the run length and generates the seed's ground motion.
func withGround(spec most.Spec, seed int64) (most.Spec, error) {
	spec.Steps = mostSteps
	cfg := groundmotion.ElCentroLike()
	cfg.Seed = seed
	cfg.Dt = spec.Frame.Dt
	cfg.Duration = float64(mostSteps) * spec.Frame.Dt
	rec, err := groundmotion.Generate(cfg)
	if err != nil {
		return spec, fmt.Errorf("ground motion: %w", err)
	}
	spec.Ground = rec
	return spec, nil
}

func runMostHybridLAN(opts options) (*result, error) {
	return runMost(opts, hybridLANSpec)
}

func runMostWANPipelined(opts options) (*result, error) {
	return runMost(opts, wanPipelinedSpec)
}

// mostRep is one Build → Run → Stop cycle.
type mostRep struct {
	stop time.Duration
	// intervals are the commit-to-commit times from Spec.OnStep.
	intervals []time.Duration
	// stretches are the rep's consecutive stretchSteps-step stretches.
	stretches []stretch
	use       sample
	res       *most.Results
	digest    string
	// layers is the traced analysis (traced reps only).
	layers *mostLayers
}

// runMost measures one MOST workload. Untraced: whole 1,500-step runs
// until the measurement time is used up. Traced: one untraced run, then
// one run with the benchmark's probes on.
func runMost(opts options, specFor func(seed int64, dir string) (most.Spec, error)) (*result, error) {
	res := newResult(opts.workload, opts.seed)
	dir, err := runDir(opts)
	if err != nil {
		return nil, err
	}
	defer removeAll(dir)
	spec, err := specFor(opts.seed, dir)
	if err != nil {
		return nil, err
	}

	var builds, stops []time.Duration
	var reps []*mostRep
	add := func(traced bool) error {
		extra, err := timeSetups(extraSetups, func() (func() error, error) {
			exp, err := most.Build(spec)
			if err != nil {
				return nil, fmt.Errorf("build: %w", err)
			}
			return func() error {
				t0 := time.Now()
				if err := exp.Stop(); err != nil {
					return fmt.Errorf("stop: %w", err)
				}
				stops = append(stops, time.Since(t0))
				return nil
			}, nil
		})
		if err != nil {
			return err
		}
		builds = append(builds, extra...)
		rep, err := mostOnce(spec, traced)
		if err != nil {
			return err
		}
		reps = append(reps, rep)
		stops = append(stops, rep.stop)
		res.Attempted += mostSteps
		res.Failed += int64(mostSteps - committed(rep.res))
		checkMostRep(res, spec, rep)
		return nil
	}
	if opts.trace {
		if err := add(false); err != nil {
			return nil, err
		}
		if err := add(true); err != nil {
			return nil, err
		}
	} else {
		var measured time.Duration
		for len(reps) == 0 || measured < opts.seconds {
			if err := add(false); err != nil {
				return nil, err
			}
			measured += reps[len(reps)-1].use.wall
		}
	}
	for _, rep := range reps[1:] {
		res.check(rep.digest == reps[0].digest,
			"trajectory digest differs between repeats: %s vs %s", rep.digest, reps[0].digest)
	}
	res.Digest = reps[0].digest
	res.Notes = append(res.Notes, "trajectory_sha256="+res.Digest)

	// End-to-end figures come from untraced reps only.
	var intervals []time.Duration
	var stretches []stretch
	steps := 0
	for _, rep := range reps {
		if rep.layers != nil {
			continue
		}
		intervals = append(intervals, rep.intervals...)
		stretches = append(stretches, rep.stretches...)
		steps += committed(rep.res)
	}
	ms := durationsIn(intervals, time.Millisecond)
	opsPerS, cpuPerStep := throughput(stretches)
	setup := median(durationsIn(builds, time.Second))
	p50, p99 := quantile(ms, 0.50), quantile(ms, 0.99)
	rss := peakRSSMB()
	setE2E(res, setup, opsPerS, p50, cpuPerStep, rss)
	res.Named["setup_s"] = metric{setup, "s"}
	res.Named["steps_per_s"] = metric{opsPerS, "steps/s"}
	res.Named["step_ms_p50"] = metric{p50, "ms"}
	res.Named["step_ms_p99"] = metric{p99, "ms"}
	res.Named["cpu_ms_per_step"] = metric{cpuPerStep, "ms"}
	res.Named["failed_ratio"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	res.Named["peak_rss_mb"] = metric{rss, "MB"}
	res.Notes = append(res.Notes, fmt.Sprintf("untraced steps=%d intervals=%d (p99 has %d beyond it)",
		steps, len(intervals), len(intervals)/100))

	if opts.trace {
		traced := reps[len(reps)-1]
		base := reps[0]
		l := traced.layers
		l.fill(res)
		res.layer("most.build_ms", median(durationsIn(builds, time.Millisecond)))
		res.layer("most.stop_ms", median(durationsIn(stops, time.Millisecond)))
		res.layer("core.retries", float64(traced.res.Report.Retries))
		res.layer("process.allocs_per_op", float64(base.use.mallocs)/math.Max(1, float64(committed(base.res))))
		res.layer("process.gc_cycles", float64(base.use.gcs))
		baseRate, _ := throughput(base.stretches)
		tracedRate, _ := throughput(traced.stretches)
		res.layer("trace.overhead_ratio", tracedRate/baseRate)
		res.Shares = l.shares
		res.Notes = append(res.Notes, fmt.Sprintf(
			"per-layer window: the last %d of %d steps whose spans are all still in the recorders (trace.DefaultCapacity rings)",
			l.window, mostSteps))
		if err := writeJSON(opts, fmt.Sprintf("%s-seed%d-spans.json", opts.workload, opts.seed), l.dump); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		res.zeroLayers()
	}
	return res, nil
}

// setE2E fills the generic end-to-end metrics.
func setE2E(res *result, setup, opsPerS, p50, cpuPerOp, rss float64) {
	res.EndToEnd["setup_s"] = metric{setup, "s"}
	res.EndToEnd["ops_per_s"] = metric{opsPerS, "1/s"}
	res.EndToEnd["op_ms_p50"] = metric{p50, "ms"}
	res.EndToEnd["cpu_ms_per_op"] = metric{cpuPerOp, "ms"}
	res.EndToEnd["peak_rss_mb"] = metric{rss, "MB"}
}

func committed(r *most.Results) int {
	if r == nil || r.Report == nil {
		return 0
	}
	return r.Report.StepsCompleted
}

// checkMostRep applies the MOST correctness checks to one rep.
func checkMostRep(res *result, spec most.Spec, rep *mostRep) {
	r := rep.res
	res.check(r.Err == nil, "run error: %v", r.Err)
	res.check(r.Report != nil && r.Report.Completed && r.Report.StepsCompleted == mostSteps,
		"committed %d of %d steps", committed(r), mostSteps)
	if r.Report == nil {
		return
	}
	res.check(r.Report.Retries == 0, "core.retries = %d on a fault-free run", r.Report.Retries)
	res.check(r.InjectedFaults == 0, "%d injected faults on a fault-free run", r.InjectedFaults)
	res.check(len(rep.intervals) == mostSteps, "observed %d commit intervals, want %d", len(rep.intervals), mostSteps)
	if spec.Pipeline {
		hits := r.Report.Telemetry.Counters["coord.pipeline.hits"]
		res.check(hits > 0, "coord.pipeline.hits = 0: the speculative path was not measured")
	}
}

// mostOnce builds the topology, runs the experiment and stops it. A traced
// rep wraps the integrator, and analyses the spans before Stop.
func mostOnce(spec most.Spec, traced bool) (*mostRep, error) {
	stamps := make([]time.Time, 0, mostSteps+1)
	var cpuMarks []time.Duration // process CPU at every stretchSteps-th commit
	spec.OnStep = func(structural.State) {
		stamps = append(stamps, time.Now())
		if (len(stamps)-1)%stretchSteps == 0 {
			cpuMarks = append(cpuMarks, cpuTime())
		}
	}
	var probe *stepProbe
	if traced {
		probe = &stepProbe{inner: structural.NewExplicitNewmark()}
		spec.Integrator = probe
	}
	rep := &mostRep{}
	settle()
	exp, err := most.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	m := startMeter()
	rep.res, err = exp.Run(context.Background())
	rep.use = m.stop()
	if err != nil {
		_ = exp.Stop()
		return nil, fmt.Errorf("run: %w", err)
	}
	for i := 1; i < len(stamps); i++ {
		rep.intervals = append(rep.intervals, stamps[i].Sub(stamps[i-1]))
	}
	for i := 1; i < len(cpuMarks); i++ {
		rep.stretches = append(rep.stretches, stretch{
			ops:  stretchSteps,
			wall: stamps[i*stretchSteps].Sub(stamps[(i-1)*stretchSteps]),
			cpu:  cpuMarks[i] - cpuMarks[i-1],
		})
	}
	if rep.res.History != nil {
		rep.digest = trajectoryDigest(rep.res.History)
	}
	if traced {
		rep.layers, err = analyseMost(exp, spec, rep.res, probe)
		if err != nil {
			_ = exp.Stop()
			return nil, err
		}
	}
	t1 := time.Now()
	if err := exp.Stop(); err != nil {
		return nil, fmt.Errorf("stop: %w", err)
	}
	rep.stop = time.Since(t1)
	return rep, nil
}

// trajectoryDigest is the SHA-256 of every committed displacement and
// restoring force, in step order.
func trajectoryDigest(h *structural.History) string {
	sum := sha256.New()
	var b [8]byte
	for _, st := range h.States {
		for _, v := range st.D {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			sum.Write(b[:])
		}
		for _, v := range st.F {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			sum.Write(b[:])
		}
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// stepProbe wraps the integrator: it times each Step and, inside it, the
// restoring-force callback (both NTCP barriers over every site).
type stepProbe struct {
	inner   structural.Integrator
	restore time.Duration
	steps   []stepTiming
}

// stepTiming is one integrator Step seen from outside.
type stepTiming struct {
	step       int
	start, end time.Time
	restore    time.Duration
}

func (p *stepProbe) wrap(sys *structural.System) *structural.System {
	w := *sys
	r := sys.R
	w.R = func(d []float64) ([]float64, error) {
		t0 := time.Now()
		f, err := r(d)
		p.restore += time.Since(t0)
		return f, err
	}
	return &w
}

func (p *stepProbe) Init(sys *structural.System, dt float64, d0, v0, p0 []float64) (structural.State, error) {
	return p.inner.Init(p.wrap(sys), dt, d0, v0, p0)
}

func (p *stepProbe) Step(load []float64) (structural.State, error) {
	p.restore = 0
	start := time.Now()
	st, err := p.inner.Step(load)
	p.steps = append(p.steps, stepTiming{step: st.Step, start: start, end: time.Now(), restore: p.restore})
	return st, err
}

func (p *stepProbe) Name() string { return p.inner.Name() }

func (p *stepProbe) Snapshot() ([]byte, error) {
	r, ok := p.inner.(structural.Resumable)
	if !ok {
		return nil, fmt.Errorf("integrator %s is not resumable", p.inner.Name())
	}
	return r.Snapshot()
}

func (p *stepProbe) Resume(sys *structural.System, dt float64, snapshot []byte) error {
	r, ok := p.inner.(structural.Resumable)
	if !ok {
		return fmt.Errorf("integrator %s is not resumable", p.inner.Name())
	}
	return r.Resume(p.wrap(sys), dt, snapshot)
}

// proposePayload is a propose request of the size the coordinator signs
// each step, for the timed gsi.sign probe.
func proposePayload() []byte {
	return []byte(`{"service":"ntcp","op":"propose","params":{"name":"most/step-1000/uiuc",` +
		`"actions":[{"control_point":"left-column","displacements":[0.012345678901234567]}],` +
		`"timeout_ms":60000},"ts":"2004-06-04T12:00:00.000000000Z",` +
		`"trace":"00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"}`)
}

// timeSign times gsi.AppendSignedEnvelope with cred on a propose-sized
// payload, n times, returning the durations.
func timeSign(cred *gsi.Credential, n int) ([]time.Duration, error) {
	payload := proposePayload()
	buf := make([]byte, 0, 8<<10)
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		b, err := gsi.AppendSignedEnvelope(buf[:0], cred, payload)
		out = append(out, time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("sign: %w", err)
		}
		buf = b
	}
	return out, nil
}
