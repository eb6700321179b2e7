package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"neesgrid/internal/nsds"
)

// Shape of nsds-fanout: 32-sample DAQ blocks, 1,000 batch-mode viewers
// behind one TCP relay.
const (
	blockSamples  = 32
	fanoutViewers = 1000
	// viewerBuffer is each viewer's batch queue. The loop is closed (one
	// block in flight), so a few slots suffice; a drop would be a defect.
	viewerBuffer = 8
	warmupBlocks = 50
	// windowBlocks is the nsds-fanout op: the end-to-end metrics time
	// windows of this many consecutive blocks, because single-block latency
	// is bimodal and its median jumps between the modes from run to run.
	windowBlocks = 64
	// maxBlocksPerSecond sizes the timing records; the loop runs at about
	// 8,000 blocks/s on one P, and a faster machine only regrows them.
	maxBlocksPerSecond = 16000
	// readyPoll is how often a starting topology checks that the relay is
	// subscribed. A sleep, not a yield: on one P a goroutine that only
	// yields keeps the scheduler from polling the network, and the relay's
	// connection then waits for the runtime's 10 ms background poll.
	readyPoll = 20 * time.Microsecond
	// deliveryTimeout bounds how long one block may take to reach every
	// viewer before the run is failed.
	deliveryTimeout = 10 * time.Second
)

// fanout is the running nsds-fanout topology: hub → binary TCP server →
// TCP relay → relay hub → viewers.
type fanout struct {
	hub    *nsds.Hub
	server *nsds.Server
	relay  *nsds.Relay
	subs   []*nsds.Subscription
	// last is each viewer's highest sequence number seen.
	last []uint64
	// order is the relay hub's fan-out order over subs (see learnOrder).
	order []int
	// watchdog closes the viewers when a block is not delivered in time,
	// which fails the run instead of leaving it waiting forever.
	watchdog *time.Timer
}

func startFanout() (*fanout, error) {
	f := &fanout{hub: nsds.NewHub(), last: make([]uint64, fanoutViewers)}
	f.server = nsds.NewServer(f.hub)
	addr, err := f.server.Start("127.0.0.1:0")
	if err != nil {
		f.hub.Close()
		return nil, err
	}
	f.relay = nsds.NewRelay(nsds.RelayConfig{Upstream: addr})
	if err := f.relay.Start(context.Background()); err != nil {
		f.close()
		return nil, err
	}
	for i := 0; i < fanoutViewers; i++ {
		sub, err := f.relay.Hub().SubscribeBatches(viewerBuffer, false)
		if err != nil {
			f.close()
			return nil, err
		}
		f.subs = append(f.subs, sub)
	}
	// Ready once the relay's upstream subscription is registered at the
	// hub; blocks published before that would never reach the viewers.
	deadline := time.Now().Add(10 * time.Second)
	for f.relay.Healthy() != nil || f.hub.Subscribers() < 1 {
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("relay did not connect")
		}
		time.Sleep(readyPoll)
	}
	f.watchdog = time.AfterFunc(deliveryTimeout, f.relay.Hub().Close)
	f.watchdog.Stop()
	return f, nil
}

func (f *fanout) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if f.watchdog != nil {
		f.watchdog.Stop()
	}
	if f.relay != nil {
		_ = f.relay.Stop(ctx) // closes the relay hub and every viewer
	}
	_ = f.server.Close()
	f.hub.Close()
}

// blockTiming is one block's closed-loop timeline.
type blockTiming struct {
	// publish is the PublishBatch call, first and total run from its start
	// until the first viewer and every viewer hold the block, and cycle
	// until every viewer has been drained.
	publish, first, total, cycle time.Duration
}

// learnOrder publishes one block and records the order in which a polling
// scan sees the relay hub's fan-out reach the viewers. The hub keeps its
// order for as long as no viewer joins or leaves, so the measured loop can
// block on the viewer seen last instead of spinning on the others.
func (f *fanout) learnOrder(block []nsds.Sample) (int, error) {
	deadline := time.Now().Add(deliveryTimeout)
	f.hub.PublishBatch(block)
	seen := make([]bool, len(f.subs))
	f.order = f.order[:0]
	for len(f.order) < len(f.subs) {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("%d of %d viewers got the first block", len(f.order), len(f.subs))
		}
		for i, sub := range f.subs {
			if !seen[i] && len(sub.Batches()) > 0 {
				seen[i] = true
				f.order = append(f.order, i)
			}
		}
		runtime.Gosched()
	}
	received := 0
	for i := range f.subs {
		n, err := f.take(i, nil)
		received += n
		if err != nil {
			return received, err
		}
	}
	return received, nil
}

// publish sends one block and waits until every viewer holds it. It
// returns the samples the viewers received, or an error on a delivery
// defect (closed viewer, wrong size, out-of-order sequence). With probe
// set it also times the PublishBatch call and the first viewer's receipt.
func (f *fanout) publish(block []nsds.Sample, probe bool) (blockTiming, int, error) {
	var bt blockTiming
	f.watchdog.Reset(deliveryTimeout)
	defer f.watchdog.Stop()
	firstIdx, lastIdx := f.order[0], f.order[len(f.order)-1]
	t0 := time.Now()
	f.hub.PublishBatch(block)
	if probe {
		bt.publish = time.Since(t0)
	}
	received := 0
	var shared *nsds.Batch
	if probe {
		n, err := f.take(firstIdx, &shared)
		bt.first = time.Since(t0)
		received += n
		if err != nil {
			return bt, received, err
		}
	}
	n, err := f.take(lastIdx, &shared)
	received += n
	if err != nil {
		return bt, received, err
	}
	taken := [2]int{lastIdx, -1}
	if probe {
		taken[1] = firstIdx
	}
	f.awaitAll(t0, taken[:]...)
	bt.total = time.Since(t0)
	for i := range f.subs {
		if i == lastIdx || (probe && i == firstIdx) {
			continue
		}
		n, err := f.take(i, &shared)
		received += n
		if err != nil {
			return bt, received, err
		}
	}
	bt.cycle = time.Since(t0)
	return bt, received, nil
}

// awaitAll waits until every viewer but the taken ones holds a block, or
// until the delivery deadline from t0 passes (the takes that follow then
// report the defect). The learned order only names the viewer the hub
// most likely reaches last: a polling scan cannot order viewers that fill
// during one pass, so a block counts as delivered once every viewer is
// seen holding it.
func (f *fanout) awaitAll(t0 time.Time, taken ...int) {
	deadline := t0.Add(deliveryTimeout)
	for i, sub := range f.subs {
		if slices.Contains(taken, i) {
			continue
		}
		for len(sub.Batches()) == 0 && time.Now().Before(deadline) {
			runtime.Gosched()
		}
	}
}

// take receives viewer i's next block and checks it. Viewers normally
// share the relay's batch, so a batch identical to *shared only needs its
// sequence checked against the viewer's last one.
func (f *fanout) take(i int, shared **nsds.Batch) (int, error) {
	b, ok := <-f.subs[i].Batches()
	if !ok {
		return 0, fmt.Errorf("viewer %d closed", i)
	}
	if shared == nil || b != *shared {
		if err := checkBlock(b.Samples, f.last[i]); err != nil {
			return 0, fmt.Errorf("viewer %d: %w", i, err)
		}
		if shared != nil {
			*shared = b
		}
	} else if b.Samples[0].Seq <= f.last[i] {
		return 0, fmt.Errorf("viewer %d: sequence %d after %d", i, b.Samples[0].Seq, f.last[i])
	}
	f.last[i] = b.Samples[len(b.Samples)-1].Seq
	return len(b.Samples), nil
}

// checkBlock verifies a whole block and that its sequence numbers strictly
// increase after last.
func checkBlock(s []nsds.Sample, last uint64) error {
	if len(s) != blockSamples {
		return fmt.Errorf("block of %d samples, want %d", len(s), blockSamples)
	}
	prev := last
	for _, x := range s {
		if x.Seq <= prev {
			return fmt.Errorf("sequence %d after %d", x.Seq, prev)
		}
		prev = x.Seq
	}
	return nil
}

// drops totals every drop counter of the topology.
func (f *fanout) drops() uint64 {
	_, d1 := f.hub.Stats()
	_, d2 := f.relay.Hub().Stats()
	n := d1 + d2
	for _, s := range f.subs {
		n += s.Dropped()
	}
	return n
}

// blockSource generates the seed's sample values on 32 channels.
type blockSource struct {
	rng   *rand.Rand
	block []nsds.Sample
	n     int
}

func newBlockSource(seed int64) *blockSource {
	bs := &blockSource{rng: rand.New(rand.NewSource(seed)), block: make([]nsds.Sample, blockSamples)}
	for i := range bs.block {
		bs.block[i].Channel = fmt.Sprintf("daq.ch%02d", i)
	}
	return bs
}

func (bs *blockSource) next() []nsds.Sample {
	t := float64(bs.n) * 0.01
	for i := range bs.block {
		bs.block[i].T = t
		bs.block[i].Value = bs.rng.NormFloat64()
	}
	bs.n++
	return bs.block
}

// segment warms a fresh topology up and measures it for d, adding the
// blocks to phases[0] (untraced) and phases[1] (traced). It returns the
// blocks published and the samples the viewers received, warm-up included.
func (f *fanout) segment(opts options, src *blockSource, phases []fanoutPhase, d time.Duration) (int64, int64, error) {
	received, err := f.learnOrder(src.next())
	published := 1
	for i := 0; err == nil && i < warmupBlocks; i++ {
		var got int
		_, got, err = f.publish(src.next(), false)
		received += got
		published++
	}
	if err != nil {
		return int64(published), int64(received), fmt.Errorf("warm-up: %w", err)
	}
	before := phases[0].blocks + phases[1].blocks
	beforeRecv := phases[0].received + phases[1].received
	if opts.trace {
		end := time.Now().Add(d)
		for i := 0; err == nil && time.Now().Before(end); i++ {
			err = f.measure(&phases[i%2], src, traceChunk, i%2 == 1)
		}
	} else {
		err = f.measure(&phases[0], src, d, false)
	}
	blocks := int64(phases[0].blocks + phases[1].blocks - before)
	recv := phases[0].received + phases[1].received - beforeRecv
	if err != nil {
		blocks++ // the block that failed
	}
	return int64(published) + blocks, int64(received) + recv, err
}

// fanoutPhase is what one measured stretch of blocks produced.
type fanoutPhase struct {
	blocks   int
	received int64
	timings  []blockTiming
	use      sample
	// stretches has one entry per measure call: a topology segment, or a
	// probe-on or probe-off chunk of a traced run.
	stretches []stretch
}

// measure publishes blocks into ph until d has elapsed.
func (f *fanout) measure(ph *fanoutPhase, src *blockSource, d time.Duration, probe bool) error {
	m := startMeter()
	before := ph.blocks
	defer func() {
		use := m.stop()
		ph.use.add(use)
		ph.stretches = append(ph.stretches, stretch{
			ops: float64(ph.blocks-before) / windowBlocks, wall: use.wall, cpu: use.cpu,
		})
	}()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		bt, got, err := f.publish(src.next(), probe)
		ph.received += int64(got)
		if err != nil {
			return err
		}
		ph.blocks++
		ph.timings = append(ph.timings, bt)
	}
	return nil
}

// traceChunk is how long a traced run measures before switching the
// per-block probes on or off; alternating keeps machine drift out of
// trace.overhead_ratio.
const traceChunk = 250 * time.Millisecond

// fanoutSegment is how long each fresh topology is measured. Block
// latency is bimodal (hot versus parked scheduler threads) and its mix
// drifts from one topology to the next, so a run averages over several.
const fanoutSegment = 1250 * time.Millisecond

// fanoutProcs is the GOMAXPROCS an untraced nsds-fanout run uses. With
// two, the relay's fan-out and the benchmark's drain of the 1,000 viewer
// channels run on different cores, so every block moves each channel's
// cache lines from one core to the other. That cost depends on where the
// host places the two virtual CPUs: on the 2-CPU machine the benchmark was
// written on, CPU per block swung between 140 and 310 µs for the same seed
// within minutes, while on one P it stayed at 100–130 µs. A traced run
// keeps every P, because on one the first viewer's receipt cannot be seen
// before the relay has finished the whole sweep.
const fanoutProcs = 1

// fanoutExtraSetups is extraSetups for nsds-fanout: a run has several
// times more segments than the other workloads have experiments or waves.
const fanoutExtraSetups = extraSetups / 4

// runNSDSFanout measures the closed-loop fan-out over fresh topologies
// of fanoutSegment each (at least two). A traced run alternates stretches
// without and with the benchmark's per-block probes.
func runNSDSFanout(opts options) (*result, error) {
	res := newResult(opts.workload, opts.seed)
	if !opts.trace {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(fanoutProcs))
		res.Notes = append(res.Notes, fmt.Sprintf("GOMAXPROCS=%d for this workload", fanoutProcs))
	}
	var setups []time.Duration
	src := newBlockSource(opts.seed)
	// The timing records are allocated and written up front: a
	// multi-megabyte slice regrown mid-run would move the GC's heap goal
	// and with it the figures being measured, and pages first touched
	// mid-run would make peak_rss_mb follow the number of blocks measured.
	phases := make([]fanoutPhase, 2)
	for i := range phases {
		n := int(opts.seconds.Seconds() * maxBlocksPerSecond)
		if i == 1 && !opts.trace {
			n = 0 // only a traced run measures with the probes on
		}
		t := make([]blockTiming, n)
		for j := range t {
			t[j].cycle = 1
		}
		phases[i].timings = t[:0]
	}
	var published, received int64
	var drops, dups uint64
	segments := max(2, int(opts.seconds/fanoutSegment))
	for seg := 0; seg < segments && len(res.Checks) == 0; seg++ {
		extra, err := timeSetups(fanoutExtraSetups, func() (func() error, error) {
			f, err := startFanout()
			if err != nil {
				return nil, err
			}
			return func() error { f.close(); return nil }, nil
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, extra...)
		settle()
		f, err := startFanout()
		if err != nil {
			return nil, err
		}
		p, r, err := f.segment(opts, src, phases, opts.seconds/time.Duration(segments))
		published += p
		received += r
		res.check(err == nil, "delivery: %v", err)
		d, u, fwd := f.drops(), f.relay.Duplicates(), f.relay.Forwarded()
		drops += d
		dups += u
		res.check(fwd == uint64(p)*blockSamples, "relay forwarded %d samples, want %d", fwd, p*blockSamples)
		f.close()
	}

	want := published * blockSamples * fanoutViewers
	res.Attempted = want
	res.Failed = want - received
	res.check(received == want, "delivered %d samples, want %d", received, want)
	res.check(drops == 0, "%d samples dropped", drops)
	res.check(dups == 0, "relay discarded %d duplicates", dups)
	if phases[0].blocks == 0 {
		res.check(false, "no block measured")
		return res, nil
	}

	base := phases[0]
	var total, windows, first, sweep, pub []float64
	var window time.Duration
	for i, bt := range base.timings {
		total = append(total, float64(bt.total)/float64(time.Millisecond))
		window += bt.cycle
		if (i+1)%windowBlocks == 0 {
			windows = append(windows, float64(window)/float64(time.Millisecond))
			window = 0
		}
	}
	windowsPerS, cpuPerWindow := throughput(base.stretches)
	const samplesPerWindow = windowBlocks * blockSamples * fanoutViewers
	setup := median(durationsIn(setups, time.Second))
	rss := peakRSSMB()
	setE2E(res, setup, windowsPerS, quantile(windows, 0.50), cpuPerWindow, rss)
	res.Named["setup_s"] = metric{setup, "s"}
	res.Named["stream_samples_per_s"] = metric{windowsPerS * samplesPerWindow, "samples/s"}
	res.Named["stream_block_ms_p50"] = metric{quantile(total, 0.50), "ms"}
	res.Named["stream_block_ms_p99"] = metric{quantile(total, 0.99), "ms"}
	res.Named["cpu_ns_per_sample"] = metric{cpuPerWindow * 1e6 / samplesPerWindow, "ns"}
	res.Named["failed_ratio"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	res.Named["peak_rss_mb"] = metric{rss, "MB"}
	res.Notes = append(res.Notes, fmt.Sprintf("blocks=%d (p99 has %d beyond it) windows=%d of %d blocks viewers=%d samples/block=%d",
		base.blocks, base.blocks/100, len(windows), windowBlocks, fanoutViewers, blockSamples))

	if opts.trace {
		traced := phases[1]
		for _, bt := range traced.timings {
			first = append(first, us(bt.first))
			sweep = append(sweep, us(bt.total-bt.first))
			pub = append(pub, us(bt.publish))
		}
		res.layer("nsds.publish_us.p50", quantile(pub, 0.5))
		res.layer("nsds.first_delivery_us.p50", quantile(first, 0.50))
		res.layer("nsds.first_delivery_us.p99", quantile(first, 0.99))
		res.layer("nsds.fanout_sweep_us.p50", quantile(sweep, 0.50))
		res.layer("nsds.fanout_sweep_us.p99", quantile(sweep, 0.99))
		res.layer("nsds.dropped", float64(drops))
		res.layer("nsds.relay.duplicates", float64(dups))
		res.layer("process.allocs_per_op", float64(base.use.mallocs)*windowBlocks/math.Max(1, float64(base.blocks)))
		res.layer("process.gc_cycles", float64(base.use.gcs))
		tracedRate, _ := throughput(traced.stretches)
		res.layer("trace.overhead_ratio", tracedRate/windowsPerS)
		res.zeroLayers()
	}
	return res, nil
}
