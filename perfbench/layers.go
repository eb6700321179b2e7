package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"neesgrid/internal/coord"
	"neesgrid/internal/most"
	"neesgrid/internal/trace"
)

// spanIndex joins spans from every recorder of a topology by span ID.
type spanIndex struct {
	children map[string][]*trace.SpanData
}

func indexSpans(spans []trace.SpanData) *spanIndex {
	idx := &spanIndex{children: make(map[string][]*trace.SpanData, len(spans))}
	for i := range spans {
		sd := &spans[i]
		if sd.Parent != "" {
			idx.children[sd.Parent] = append(idx.children[sd.Parent], sd)
		}
	}
	return idx
}

// kids returns the children of sd matching pred.
func (idx *spanIndex) kids(sd *trace.SpanData, pred func(*trace.SpanData) bool) []*trace.SpanData {
	var out []*trace.SpanData
	for _, c := range idx.children[sd.SpanID] {
		if pred(c) {
			out = append(out, c)
		}
	}
	return out
}

func named(name string) func(*trace.SpanData) bool {
	return func(sd *trace.SpanData) bool { return sd.Name == name }
}

func ofKind(kind string) func(*trace.SpanData) bool {
	return func(sd *trace.SpanData) bool { return sd.Kind == kind }
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func sumUS(spans []*trace.SpanData) float64 {
	s := 0.0
	for _, sd := range spans {
		s += us(sd.Duration())
	}
	return s
}

// delayUS sums the faultnet.delay annotations on a client span.
func delayUS(sd *trace.SpanData) float64 {
	s := 0.0
	for _, ev := range sd.Events {
		if ev.Name != "faultnet.delay" {
			continue
		}
		if d, err := time.ParseDuration(ev.Detail); err == nil {
			s += us(d)
		}
	}
	return s
}

// unionUS is the length of the union of the spans' intervals, clipped to
// [lo, hi].
func unionUS(spans []*trace.SpanData, lo, hi time.Time) float64 {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(spans))
	for _, sd := range spans {
		a, b := sd.Start, sd.End
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	total := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		if i == 0 || v.a.After(cur.b) {
			if i > 0 {
				total += cur.b.Sub(cur.a)
			}
			cur = v
			continue
		}
		if v.b.After(cur.b) {
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return us(total)
}

// callLayers accumulates the per-call layer samples of NTCP traffic: the
// client side (when client spans are known) and the server side.
type callLayers struct {
	call          map[string][]float64 // ogsi.call_us by op
	clientSelf    []float64
	serverSelf    []float64
	verifyCached  []float64
	verifyUncache []float64
	core          map[string][]float64 // core.server_us by op
	validate      []float64
	plugin        map[string][]float64 // plugin.execute_us by backend kind
	publish       []float64
}

func newCallLayers() *callLayers {
	return &callLayers{call: map[string][]float64{}, core: map[string][]float64{}, plugin: map[string][]float64{}}
}

func (cl *callLayers) verify(sd *trace.SpanData) {
	if sd.Attrs["cached"] == "true" {
		cl.verifyCached = append(cl.verifyCached, us(sd.Duration()))
	} else {
		cl.verifyUncache = append(cl.verifyUncache, us(sd.Duration()))
	}
}

// chain is the critical-path decomposition of one client call, in µs.
type chain struct {
	delay, client, verify, server, core, validate, plugin float64
}

func (c *chain) add(o chain) {
	c.delay += o.delay
	c.client += o.client
	c.verify += o.verify
	c.server += o.server
	c.core += o.core
	c.validate += o.validate
	c.plugin += o.plugin
}

// server decomposes one server span: request verification, its own time,
// and the core spans beneath it. kind is the site's backend kind.
func (cl *callLayers) server(idx *spanIndex, s *trace.SpanData, kind string) chain {
	var c chain
	for _, v := range idx.kids(s, named("gsi.verify")) {
		cl.verify(v)
		c.verify += us(v.Duration())
	}
	internal := idx.kids(s, func(sd *trace.SpanData) bool {
		return sd.Kind == trace.KindInternal && strings.HasPrefix(sd.Name, "ntcp.")
	})
	c.server = us(s.Duration()) - sumUS(internal)
	cl.serverSelf = append(cl.serverSelf, c.server)
	for _, in := range internal {
		val := idx.kids(in, named("ntcp.validate"))
		plug := idx.kids(in, named("ntcp.plugin.execute"))
		self := us(in.Duration()) - sumUS(val) - sumUS(plug)
		op := strings.TrimPrefix(in.Name, "ntcp.")
		cl.core[op] = append(cl.core[op], self)
		c.core += self
		for _, v := range val {
			cl.validate = append(cl.validate, us(v.Duration()))
			c.validate += us(v.Duration())
		}
		for _, p := range plug {
			cl.plugin[kind] = append(cl.plugin[kind], us(p.Duration()))
			c.plugin += us(p.Duration())
		}
	}
	return c
}

// client decomposes one client span into its layers.
func (cl *callLayers) client(idx *spanIndex, sd *trace.SpanData, kind string) chain {
	var c chain
	op := strings.TrimPrefix(sd.Name, "ntcp.")
	cl.call[op] = append(cl.call[op], us(sd.Duration()))
	c.delay = delayUS(sd)
	for _, v := range idx.kids(sd, named("gsi.verify")) {
		cl.verify(v)
		c.verify += us(v.Duration())
	}
	serverTotal := 0.0
	for _, s := range idx.kids(sd, ofKind(trace.KindServer)) {
		serverTotal += us(s.Duration())
		c.add(cl.server(idx, s, kind))
	}
	c.client = us(sd.Duration()) - serverTotal - c.delay - c.verify
	cl.clientSelf = append(cl.clientSelf, c.client)
	return c
}

// fill writes the per-call metrics.
func (cl *callLayers) fill(res *result) {
	for _, op := range []string{"propose", "execute", "batch"} {
		res.layer("ogsi.call_us.p50."+op, quantile(cl.call[op], 0.50))
		res.layer("ogsi.call_us.p99."+op, quantile(cl.call[op], 0.99))
	}
	res.layer("ogsi.client_self_us.p50", quantile(cl.clientSelf, 0.5))
	res.layer("ogsi.server_self_us.p50", quantile(cl.serverSelf, 0.5))
	res.layer("gsi.verify_us.p50.cached", quantile(cl.verifyCached, 0.5))
	res.layer("gsi.verify_us.p50.uncached", quantile(cl.verifyUncache, 0.5))
	res.layer("core.server_us.p50.propose", quantile(cl.core["propose"], 0.5))
	res.layer("core.server_us.p50.execute", quantile(cl.core["execute"], 0.5))
	res.layer("core.validate_us.p50", quantile(cl.validate, 0.5))
	for kind, xs := range cl.plugin {
		res.layer("plugin.execute_us.p50."+kind, quantile(xs, 0.50))
		res.layer("plugin.execute_us.p99."+kind, quantile(xs, 0.99))
	}
	if len(cl.publish) > 0 {
		res.layer("nsds.publish_us.p50", quantile(cl.publish, 0.5))
	}
}

// stepLayers is one step's critical-path breakdown, in µs.
type stepLayers struct {
	total, structural, coordSelf, publish float64
	path                                  chain
	// delayAllSites sums, over the step's phases, the largest faultnet
	// delay any site paid in that phase.
	delayAllSites float64
	unexplained   float64
}

// mostLayers is the traced analysis of one MOST run.
type mostLayers struct {
	calls  *callLayers
	steps  []stepLayers
	probe  *stepProbe
	window int
	shares map[string]float64
	extra  map[string]float64
	dump   map[string]any
}

// analyseMost joins the run's spans, telemetry and the probe's timings.
// It must run before the experiment stops.
func analyseMost(exp *most.Experiment, spec most.Spec, r *most.Results, probe *stepProbe) (*mostLayers, error) {
	spans := exp.SpanSnapshot()
	idx := indexSpans(spans)
	kinds := map[string]string{}
	for _, s := range exp.Sites {
		kinds[s.Spec.Name] = s.Spec.Kind.String()
	}
	probeAt := map[int]stepTiming{}
	for _, st := range probe.steps {
		probeAt[st.step] = st
	}
	l := &mostLayers{calls: newCallLayers(), probe: probe, extra: map[string]float64{}}
	var kept []trace.SpanData
	var ours []trace.SpanData
	for i := range spans {
		root := &spans[i]
		if root.Name != "coord.step" || root.Service != "coordinator" || root.Attrs["run"] != spec.Name {
			continue
		}
		step, err := strconv.Atoi(root.Attrs["step"])
		if err != nil || step < 1 {
			continue
		}
		pt, ok := probeAt[step]
		if !ok || !complete(idx, root, len(exp.Sites)) {
			continue
		}
		sl := l.step(idx, root, pt, kinds)
		l.steps = append(l.steps, sl)
		kept = append(kept, collect(idx, root)...)
		ours = append(ours, trace.SpanData{
			TraceID: root.TraceID, SpanID: fmt.Sprintf("perfbench-%d-step", step), Parent: root.SpanID,
			Service: "perfbench", Name: "perfbench.integrator.step", Kind: trace.KindInternal,
			Start: pt.start, End: pt.end,
			Attrs: map[string]string{"restore_us": strconv.FormatFloat(us(pt.restore), 'f', 3, 64)},
		})
	}
	l.window = len(l.steps)
	if l.window == 0 {
		return nil, fmt.Errorf("traced run retained no complete step")
	}
	l.summarise()
	l.dump = map[string]any{"window_steps": l.window, "spans": append(kept, ours...)}

	counters := r.Report.Telemetry.Counters
	hits, miss := counters["coord.pipeline.hits"], counters["coord.pipeline.mispredicts"]
	if hits+miss > 0 {
		l.extra["coord.pipeline.hit_ratio"] = float64(hits) / float64(hits+miss)
	}
	steps := math.Max(1, float64(committed(r)))
	l.extra["coord.round_trips_per_step"] = float64(counters["faultnet.calls"]) / (steps * float64(len(exp.Sites)))
	h, m := exp.Trust.CacheStats()
	if h+m > 0 {
		l.extra["gsi.chain_cache.hit_ratio"] = float64(h) / float64(h+m)
	}
	signs, err := timeSign(exp.Cred, 500)
	if err != nil {
		return nil, err
	}
	l.extra["gsi.sign_us.p50"] = quantile(durationsIn(signs, time.Microsecond), 0.5)
	if spec.Checkpoint != nil {
		ck, err := timeCheckpoint(spec.Checkpoint.Path, 50)
		if err != nil {
			return nil, err
		}
		l.extra["coord.checkpoint_ms.p50"] = quantile(ck, 0.50)
		l.extra["coord.checkpoint_ms.p99"] = quantile(ck, 0.99)
	}
	return l, nil
}

// complete reports whether every span of a step's trace is still retained:
// each phase span has its client call, and each client call its server.
func complete(idx *spanIndex, root *trace.SpanData, sites int) bool {
	phases := idx.kids(root, func(sd *trace.SpanData) bool { return strings.HasPrefix(sd.Name, "coord.") })
	if len(phases) == 0 || len(phases)%sites != 0 {
		return false
	}
	for _, p := range phases {
		clients := idx.kids(p, ofKind(trace.KindClient))
		if len(clients) == 0 {
			return false
		}
		for _, c := range clients {
			if len(idx.kids(c, ofKind(trace.KindServer))) == 0 {
				return false
			}
		}
	}
	return true
}

// collect returns root and all its descendants.
func collect(idx *spanIndex, root *trace.SpanData) []trace.SpanData {
	out := []trace.SpanData{*root}
	for _, c := range idx.children[root.SpanID] {
		out = append(out, collect(idx, c)...)
	}
	return out
}

// step decomposes one coord.step span along its critical path: per phase
// (propose, execute, pipebatch, ...) the site whose phase span ended last.
func (l *mostLayers) step(idx *spanIndex, root *trace.SpanData, pt stepTiming, kinds map[string]string) stepLayers {
	sl := stepLayers{total: us(root.Duration())}
	sl.structural = us(pt.end.Sub(pt.start) - pt.restore)
	children := idx.children[root.SpanID]
	sl.coordSelf = sl.total - unionUS(children, root.Start, root.End) - sl.structural
	for _, p := range idx.kids(root, named("nsds.publish")) {
		sl.publish += us(p.Duration())
		l.calls.publish = append(l.calls.publish, us(p.Duration()))
	}
	byPhase := map[string][]*trace.SpanData{}
	for _, c := range children {
		if strings.HasPrefix(c.Name, "coord.") {
			byPhase[c.Name] = append(byPhase[c.Name], c)
		}
	}
	for _, phase := range byPhase {
		critical := phase[0]
		maxDelay := 0.0
		var critChain chain
		for i, p := range phase {
			var pc chain
			for _, c := range idx.kids(p, ofKind(trace.KindClient)) {
				pc.add(l.calls.client(idx, c, kinds[p.Attrs["site"]]))
			}
			maxDelay = math.Max(maxDelay, pc.delay)
			if i == 0 || p.End.After(critical.End) {
				critical = p
				critChain = pc
			}
		}
		sl.path.add(critChain)
		sl.delayAllSites += maxDelay
	}
	sl.unexplained = sl.total - sl.structural - sl.coordSelf - sl.publish - sl.path.sum()
	return sl
}

func (c chain) sum() float64 {
	return c.delay + c.client + c.verify + c.server + c.core + c.validate + c.plugin
}

// summarise derives the per-step distributions and the mean shares.
func (l *mostLayers) summarise() {
	n := float64(len(l.steps))
	l.shares = map[string]float64{}
	add := func(k string, v float64) { l.shares[k] += v / n }
	for _, s := range l.steps {
		add("step", s.total)
		add("structural", s.structural)
		add("coord", s.coordSelf)
		add("nsds.publish", s.publish)
		add("faultnet.delay", s.path.delay)
		add("ogsi.client", s.path.client)
		add("gsi.verify", s.path.verify)
		add("ogsi.server", s.path.server)
		add("core.server", s.path.core)
		add("core.validate", s.path.validate)
		add("plugin", s.path.plugin)
		add("unexplained", s.unexplained)
	}
}

// fill writes the MOST per-layer metrics.
func (l *mostLayers) fill(res *result) {
	var structSelf, restore, post []float64
	for i, st := range l.probe.steps {
		structSelf = append(structSelf, us(st.end.Sub(st.start)-st.restore))
		restore = append(restore, float64(st.restore)/float64(time.Millisecond))
		if i > 0 {
			post = append(post, us(st.start.Sub(l.probe.steps[i-1].end)))
		}
	}
	res.layer("structural.step_us.p50", quantile(structSelf, 0.5))
	res.layer("coord.restore_ms.p50", quantile(restore, 0.50))
	res.layer("coord.restore_ms.p99", quantile(restore, 0.99))
	res.layer("coord.post_commit_us.p50", quantile(post, 0.50))
	res.layer("coord.post_commit_us.p99", quantile(post, 0.99))

	var self, total, unexplained, delay []float64
	for _, s := range l.steps {
		self = append(self, s.coordSelf)
		total = append(total, s.total)
		unexplained = append(unexplained, s.unexplained)
		delay = append(delay, s.delayAllSites/1000)
	}
	res.layer("coord.self_us.p50", quantile(self, 0.5))
	res.layer("reconcile.step_us.p50", quantile(total, 0.5))
	res.layer("reconcile.unexplained_us.p50", quantile(unexplained, 0.5))
	res.layer("faultnet.delay_ms_per_step", mean(delay))
	res.layer("trace.window_steps", float64(l.window))
	l.calls.fill(res)
	for k, v := range l.extra {
		res.layer(k, v)
	}
}

// timeCheckpoint re-saves the run's last checkpoint beside it n times and
// returns the write times in ms.
func timeCheckpoint(path string, n int) ([]float64, error) {
	cp, err := coord.LoadCheckpoint(path)
	if err != nil {
		return nil, fmt.Errorf("load checkpoint: %w", err)
	}
	dst := filepath.Join(filepath.Dir(path), "timed-checkpoint.json")
	defer os.Remove(dst)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := coord.SaveCheckpoint(dst, cp); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return out, nil
}

func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: remove %s: %v\n", dir, err)
	}
}
