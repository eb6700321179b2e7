package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"neesgrid/internal/fleet"
	"neesgrid/internal/most"
	"neesgrid/internal/obs"
	"neesgrid/internal/structural"
	"neesgrid/internal/trace"
)

// Shape of the fleet workload: 4 simulation slots, jobs of 2 slots × 120
// steps, so two jobs run at once; waves of jobs all submitted up front.
const (
	fleetSlots     = 4
	fleetJobSlots  = 2
	fleetJobSteps  = 120
	fleetWaveJobs  = 24
	fleetTenants   = 2
	fleetPoll      = 2 * time.Millisecond
	fleetWaveLimit = 120 * time.Second
)

var fleetTenantNames = [fleetTenants]string{"alpha", "beta"}

// fleetWave is one pool's worth of jobs, from set-up to the last job.
type fleetWave struct {
	jobs     int
	done     int
	refused  int
	steps    int64
	rolledUp int64
	rejected int64
	// wall runs from the first submit to the last terminal state.
	wall time.Duration
	// runTimes are each job's grant-to-terminal times, as polled.
	runTimes []time.Duration
	// busy is the sum of every job's coord.step.seconds from its roll-up.
	busy float64
	use  sample
	// traced extras
	lease, buildShared, sign []time.Duration
	calls                    *callLayers
	cacheHit                 float64
}

// runFleet measures fleet throughput. Untraced: waves until the
// measurement time is used up. Traced: one untraced wave for the overhead
// ratio, then a wave followed by the idle-pool probes.
func runFleet(opts options) (*result, error) {
	res := newResult(opts.workload, opts.seed)
	rng := rand.New(rand.NewSource(opts.seed))
	var setups []time.Duration
	var waves []*fleetWave
	add := func(traced bool) error {
		extra, err := timeSetups(extraSetups, func() (func() error, error) {
			pool, sched, _, err := startFleet()
			if err != nil {
				return nil, err
			}
			return func() error { stopFleet(pool, sched); return nil }, nil
		})
		if err != nil {
			return err
		}
		setups = append(setups, extra...)
		w, err := fleetOnce(rng, traced)
		if err != nil {
			return err
		}
		waves = append(waves, w)
		res.Attempted += int64(w.jobs + w.refused)
		res.Failed += int64(w.jobs - w.done + w.refused)
		res.check(w.refused == 0, "%d submissions refused", w.refused)
		res.check(w.done == w.jobs, "%d of %d jobs Done", w.done, w.jobs)
		res.check(w.rolledUp == w.steps && w.steps == int64(w.jobs*fleetJobSteps),
			"merged roll-up coord.steps.completed = %d, job steps = %d, want %d",
			w.rolledUp, w.steps, w.jobs*fleetJobSteps)
		res.check(w.rejected == 0, "fleet.jobs.rejected = %d", w.rejected)
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
		for len(waves) == 0 || measured < opts.seconds {
			if err := add(false); err != nil {
				return nil, err
			}
			measured += waves[len(waves)-1].wall
		}
	}

	var runTimes []time.Duration
	var stretches []stretch
	for i, w := range waves {
		if opts.trace && i == len(waves)-1 {
			continue // end-to-end figures come from untraced waves
		}
		runTimes = append(runTimes, w.runTimes...)
		stretches = append(stretches, stretch{ops: float64(w.done), wall: w.wall, cpu: w.use.cpu})
	}
	ms := durationsIn(runTimes, time.Millisecond)
	jobsPerS, cpuPerJob := throughput(stretches)
	setup := median(durationsIn(setups, time.Second))
	p50, p99 := quantile(ms, 0.50), quantile(ms, 0.99)
	rss := peakRSSMB()
	setE2E(res, setup, jobsPerS, p50, cpuPerJob, rss)
	res.Named["setup_s"] = metric{setup, "s"}
	res.Named["jobs_per_s"] = metric{jobsPerS, "jobs/s"}
	// Every job runs fleetJobSteps steps; the checks above hold each to it.
	res.Named["steps_per_s"] = metric{jobsPerS * fleetJobSteps, "steps/s"}
	res.Named["cpu_ms_per_step"] = metric{cpuPerJob / fleetJobSteps, "ms"}
	res.Named["job_ms_p50"] = metric{p50, "ms"}
	res.Named["job_ms_p99"] = metric{p99, "ms"}
	res.Named["failed_ratio"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	res.Named["peak_rss_mb"] = metric{rss, "MB"}
	res.Notes = append(res.Notes, fmt.Sprintf("waves=%d jobs=%d (job run times polled every %v)",
		len(waves), len(runTimes), fleetPoll))

	if opts.trace {
		base, traced := waves[0], waves[len(waves)-1]
		traced.calls.fill(res)
		res.layer("fleet.slot_busy_ratio", traced.busy/(traced.wall.Seconds()*fleetSlots/fleetJobSlots))
		res.layer("fleet.lease_ms.p50", median(durationsIn(traced.lease, time.Millisecond)))
		res.layer("fleet.build_shared_ms.p50", median(durationsIn(traced.buildShared, time.Millisecond)))
		res.layer("fleet.jobs_rejected", float64(traced.rejected))
		res.layer("gsi.sign_us.p50", median(durationsIn(traced.sign, time.Microsecond)))
		res.layer("gsi.chain_cache.hit_ratio", traced.cacheHit)
		res.layer("process.allocs_per_op", float64(base.use.mallocs)/math.Max(1, float64(base.done)))
		res.layer("process.gc_cycles", float64(base.use.gcs))
		baseRate := float64(base.done) / base.wall.Seconds()
		tracedRate := float64(traced.done) / traced.wall.Seconds()
		res.layer("trace.overhead_ratio", tracedRate/baseRate)
		res.zeroLayers()
	}
	return res, nil
}

// fleetOnce starts a pool and scheduler, submits a wave of jobs, waits for
// every job, and stops both. A traced wave then probes the idle pool.
func fleetOnce(rng *rand.Rand, traced bool) (*fleetWave, error) {
	w := &fleetWave{jobs: fleetWaveJobs}
	settle()
	pool, sched, agg, err := startFleet()
	if err != nil {
		return nil, err
	}
	defer stopFleet(pool, sched)

	m := startMeter()
	start := time.Now()
	for i := 0; i < fleetWaveJobs; i++ {
		_, err := sched.Submit(fleet.Request{
			Tenant: fleetTenantNames[i%fleetTenants],
			Name:   fmt.Sprintf("run-%06x", rng.Intn(1<<24)),
			Slots:  fleetJobSlots,
			Steps:  fleetJobSteps,
		})
		if err != nil {
			w.refused++
			w.jobs--
		}
	}
	if err := sched.Start(context.Background()); err != nil {
		return nil, fmt.Errorf("scheduler start: %w", err)
	}
	if err := w.poll(sched, start); err != nil {
		return nil, err
	}
	w.use = m.stop()

	for _, v := range sched.Jobs() {
		w.steps += int64(v.StepsDone)
		if v.State == fleet.StateDone {
			w.done++
		}
		if snap, ok := agg.SiteSnapshot(v.Tenant + "/" + v.ID); ok {
			w.busy += snap.Histograms["coord.step.seconds"].Sum
		}
	}
	w.rolledUp = agg.Merged().Counters["coord.steps.completed"]
	w.rejected = sched.Registry().Snapshot().Counters["fleet.jobs.rejected"]
	if traced {
		if err := w.probe(pool); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// startFleet creates the slot pool, the roll-up aggregator and the
// scheduler (not yet started).
func startFleet() (*fleet.Pool, *fleet.Scheduler, *obs.Aggregator, error) {
	pool, err := fleet.NewPool(fleet.PoolConfig{Slots: fleetSlots})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("pool: %w", err)
	}
	agg := obs.New(obs.Config{})
	tenants := make([]fleet.Tenant, fleetTenants)
	for i := range tenants {
		tenants[i] = fleet.Tenant{Name: fleetTenantNames[i], Weight: 1, MaxQueued: fleetWaveJobs}
	}
	sched, err := fleet.NewScheduler(fleet.Config{Pool: pool, Tenants: tenants, Agg: agg})
	if err != nil {
		stopFleet(pool, nil)
		return nil, nil, nil, fmt.Errorf("scheduler: %w", err)
	}
	return pool, sched, agg, nil
}

// stopFleet stops the scheduler (waiting for its runners) and the pool.
func stopFleet(pool *fleet.Pool, sched *fleet.Scheduler) {
	if sched != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = sched.Stop(ctx)
		cancel()
	}
	ctx, cancel := context.WithTimeout(context.Background(), pool.StopBudget())
	defer cancel()
	_ = pool.Stop(ctx)
}

// poll watches the scheduler until every job is terminal, recording each
// job's grant-to-terminal time and the wave's wall time.
func (w *fleetWave) poll(sched *fleet.Scheduler, start time.Time) error {
	granted := map[string]time.Time{}
	ended := map[string]bool{}
	tick := time.NewTicker(fleetPoll)
	defer tick.Stop()
	deadline := time.After(fleetWaveLimit)
	for {
		now := time.Now()
		live := 0
		for _, v := range sched.Jobs() {
			if v.Seq >= 0 {
				if _, ok := granted[v.ID]; !ok {
					granted[v.ID] = now
				}
			}
			terminal := v.State == fleet.StateDone || v.State == fleet.StateFailed || v.State == fleet.StateCancelled
			if !terminal {
				live++
				continue
			}
			if !ended[v.ID] {
				ended[v.ID] = true
				w.runTimes = append(w.runTimes, now.Sub(granted[v.ID]))
			}
		}
		if live == 0 {
			w.wall = now.Sub(start)
			return nil
		}
		select {
		case <-tick.C:
		case <-deadline:
			return fmt.Errorf("fleet wave did not finish in %v (%d jobs live)", fleetWaveLimit, live)
		}
	}
}

// probe times pool operations on the idle pool and reads the slots' spans.
func (w *fleetWave) probe(pool *fleet.Pool) error {
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		sites, err := pool.Lease(fleetJobSlots)
		if err != nil {
			return fmt.Errorf("lease: %w", err)
		}
		if err := pool.Release(sites); err != nil {
			return fmt.Errorf("release: %w", err)
		}
		w.lease = append(w.lease, time.Since(t0))
	}
	for i := 0; i < 10; i++ {
		sites, err := pool.Lease(fleetJobSlots)
		if err != nil {
			return fmt.Errorf("lease: %w", err)
		}
		spec := most.Spec{
			Name:  fmt.Sprintf("probe-%d", i),
			Steps: fleetJobSteps,
			Frame: structural.FrameConfig{Mass: 1000, Dt: 0.01, Steps: fleetJobSteps, DampingRatio: 0.02,
				LeftK: sites[0].Spec.K, MidK: sites[1].Spec.K},
		}
		t0 := time.Now()
		exp, err := most.BuildShared(spec, pool.CA(), pool.Trust(), "probe", sites)
		if err == nil {
			err = exp.Stop()
		}
		w.buildShared = append(w.buildShared, time.Since(t0))
		if rerr := pool.Release(sites); err == nil {
			err = rerr
		}
		if err != nil {
			return fmt.Errorf("build shared: %w", err)
		}
	}
	cred, err := pool.CA().Issue("/O=NEES/OU=probe/CN=sign", time.Hour)
	if err != nil {
		return err
	}
	if w.sign, err = timeSign(cred, 500); err != nil {
		return err
	}
	if h, m := pool.Trust().CacheStats(); h+m > 0 {
		w.cacheHit = float64(h) / float64(h+m)
	}
	w.calls = newCallLayers()
	for _, site := range pool.Sites() {
		spans := site.SpanRecorder.Spans()
		idx := indexSpans(spans)
		for i := range spans {
			if spans[i].Kind == trace.KindServer {
				w.calls.server(idx, &spans[i], site.Spec.Kind.String())
			}
		}
	}
	return nil
}
