package nsds

import (
	"sync"
	"testing"
	"time"
)

func TestHubPublishSubscribe(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sub, err := h.Subscribe(8)
	if err != nil {
		t.Fatal(err)
	}
	h.Publish(Sample{Channel: "a", T: 0.01, Value: 1.5})
	select {
	case s := <-sub.C():
		if s.Channel != "a" || s.Value != 1.5 || s.Seq != 1 {
			t.Fatalf("sample = %+v", s)
		}
	case <-time.After(time.Second):
		t.Fatal("no sample delivered")
	}
}

func TestHubChannelFilter(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sub, _ := h.Subscribe(8, "wanted")
	h.Publish(Sample{Channel: "ignored", Value: 1})
	h.Publish(Sample{Channel: "wanted", Value: 2})
	s := <-sub.C()
	if s.Channel != "wanted" {
		t.Fatalf("filter leaked %q", s.Channel)
	}
	select {
	case s := <-sub.C():
		t.Fatalf("unexpected extra sample %+v", s)
	default:
	}
}

func TestHubBestEffortDropsForSlowConsumer(t *testing.T) {
	h := NewHub()
	defer h.Close()
	slow, _ := h.Subscribe(2)
	fast, _ := h.Subscribe(100)
	for i := 0; i < 50; i++ {
		h.Publish(Sample{Channel: "c", Value: float64(i)})
	}
	if slow.Dropped() == 0 {
		t.Fatal("slow consumer should have dropped samples")
	}
	if fast.Dropped() != 0 {
		t.Fatal("fast consumer should not drop")
	}
	// Fast consumer got everything in order.
	for i := 0; i < 50; i++ {
		s := <-fast.C()
		if s.Value != float64(i) {
			t.Fatalf("fast consumer sample %d = %g", i, s.Value)
		}
	}
	pub, dropped := h.Stats()
	if pub != 50 || dropped == 0 {
		t.Fatalf("stats = %d published, %d dropped", pub, dropped)
	}
}

func TestSubscriptionCancel(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sub, _ := h.Subscribe(1)
	sub.Cancel()
	if _, ok := <-sub.C(); ok {
		t.Fatal("cancelled subscription channel should be closed")
	}
	h.Publish(Sample{Channel: "c"}) // must not panic
}

func TestHubClose(t *testing.T) {
	h := NewHub()
	sub, _ := h.Subscribe(1)
	h.Close()
	if _, ok := <-sub.C(); ok {
		t.Fatal("close should close subscriptions")
	}
	if _, err := h.Subscribe(1); err == nil {
		t.Fatal("subscribe after close should fail")
	}
	h.Publish(Sample{Channel: "c"}) // no-op, no panic
	h.Close()                       // idempotent
}

func TestServerClientStream(t *testing.T) {
	h := NewHub()
	defer h.Close()
	srv := NewServer(h)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := DialBatches(addr, 64, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Give the server a moment to register the subscription.
	deadline := time.Now().Add(time.Second)
	for {
		h.Publish(Sample{Channel: "uiuc.lvdt1", T: 0.01, Value: 3.25})
		select {
		case b := <-cl.Batches():
			if len(b) != 1 || b[0].Channel != "uiuc.lvdt1" || b[0].Value != 3.25 {
				t.Fatalf("batch = %+v", b)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no sample over TCP")
		}
	}
}

func TestServerClientChannelFilter(t *testing.T) {
	h := NewHub()
	defer h.Close()
	srv := NewServer(h)
	addr, _ := srv.Start("127.0.0.1:0")
	defer srv.Close()

	cl, err := DialBatches(addr, 64, false, []string{"only.this"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	time.Sleep(20 * time.Millisecond) // let subscription land
	h.Publish(Sample{Channel: "other", Value: 1})
	h.Publish(Sample{Channel: "only.this", Value: 2})
	select {
	case b := <-cl.Batches():
		if len(b) != 1 || b[0].Channel != "only.this" {
			t.Fatalf("filter leaked %+v", b)
		}
	case <-time.After(time.Second):
		t.Fatal("no sample")
	}
}

func TestClientCloseEndsStream(t *testing.T) {
	h := NewHub()
	defer h.Close()
	srv := NewServer(h)
	addr, _ := srv.Start("127.0.0.1:0")
	defer srv.Close()
	cl, err := DialBatches(addr, 4, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = cl.Close()
	select {
	case _, ok := <-cl.Batches():
		if ok {
			t.Fatal("expected closed stream")
		}
	case <-time.After(time.Second):
		t.Fatal("stream did not close")
	}
}

func TestCollectFor(t *testing.T) {
	h := NewHub()
	defer h.Close()
	srv := NewServer(h)
	addr, _ := srv.Start("127.0.0.1:0")
	defer srv.Close()
	cl, err := DialBatches(addr, 64, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	time.Sleep(20 * time.Millisecond)
	for i := 0; i < 10; i++ {
		h.Publish(Sample{Channel: "c", Value: float64(i)})
	}
	got := cl.CollectFor(100 * time.Millisecond)
	if len(got) != 10 {
		t.Fatalf("collected %d samples, want 10", len(got))
	}
}

func TestCatchUpDeliversRetainedHistory(t *testing.T) {
	h := NewHub()
	defer h.Close()
	h.SetRetention(5)
	for i := 0; i < 12; i++ {
		h.Publish(Sample{Channel: "c", T: float64(i), Value: float64(i)})
	}
	// Late joiner with catch-up gets the last 5 samples, oldest first.
	sub, err := h.SubscribeWithCatchUp(16)
	if err != nil {
		t.Fatal(err)
	}
	for want := 7.0; want < 12; want++ {
		s := <-sub.C()
		if s.Value != want {
			t.Fatalf("history sample = %g, want %g", s.Value, want)
		}
	}
	// Live samples continue after history.
	h.Publish(Sample{Channel: "c", T: 12, Value: 12})
	if s := <-sub.C(); s.Value != 12 {
		t.Fatalf("live sample = %g", s.Value)
	}
	// A plain Subscribe sees no history.
	plain, _ := h.Subscribe(16)
	select {
	case s := <-plain.C():
		t.Fatalf("plain subscriber got history %+v", s)
	default:
	}
}

func TestCatchUpRespectsFilterAndOrdersAcrossChannels(t *testing.T) {
	h := NewHub()
	defer h.Close()
	h.SetRetention(4)
	h.Publish(Sample{Channel: "a", Value: 1})
	h.Publish(Sample{Channel: "b", Value: 2})
	h.Publish(Sample{Channel: "a", Value: 3})
	sub, _ := h.SubscribeWithCatchUp(8, "a")
	s1, s2 := <-sub.C(), <-sub.C()
	if s1.Value != 1 || s2.Value != 3 {
		t.Fatalf("filtered history = %g, %g", s1.Value, s2.Value)
	}
	// Unfiltered joiner sees a, b, a in publish (seq) order.
	all, _ := h.SubscribeWithCatchUp(8)
	v1, v2, v3 := <-all.C(), <-all.C(), <-all.C()
	if v1.Value != 1 || v2.Value != 2 || v3.Value != 3 {
		t.Fatalf("ordering = %g %g %g", v1.Value, v2.Value, v3.Value)
	}
}

func TestCatchUpOverTCP(t *testing.T) {
	h := NewHub()
	defer h.Close()
	h.SetRetention(10)
	srv := NewServer(h)
	addr, _ := srv.Start("127.0.0.1:0")
	defer srv.Close()
	for i := 0; i < 3; i++ {
		h.Publish(Sample{Channel: "c", T: float64(i), Value: float64(i)})
	}
	cl, err := DialBatches(addr, 16, true, []string{"c"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	got := cl.CollectFor(200 * time.Millisecond)
	if len(got) != 3 || got[0].Value != 0 || got[2].Value != 2 {
		t.Fatalf("tcp catch-up = %v", got)
	}
}

func TestRetentionDisabledByDefault(t *testing.T) {
	h := NewHub()
	defer h.Close()
	h.Publish(Sample{Channel: "c", Value: 1})
	sub, _ := h.SubscribeWithCatchUp(4)
	select {
	case s := <-sub.C():
		t.Fatalf("history delivered with retention off: %+v", s)
	default:
	}
}

func TestPublishBatchSequencesAndDelivers(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	all, err := hub.Subscribe(64)
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := hub.Subscribe(64, "a")
	if err != nil {
		t.Fatal(err)
	}

	hub.Publish(Sample{Channel: "a", T: 0, Value: 1})
	batch := []Sample{
		{Channel: "a", T: 1, Value: 2},
		{Channel: "b", T: 1, Value: 3},
		{Channel: "a", T: 2, Value: 4},
	}
	hub.PublishBatch(batch)

	// Sequence numbers continue from Publish and are filled into the caller's
	// slice.
	for i, s := range batch {
		if s.Seq != uint64(2+i) {
			t.Fatalf("batch[%d].Seq = %d, want %d", i, s.Seq, 2+i)
		}
	}
	// Unfiltered subscriber sees all four in order.
	for want := uint64(1); want <= 4; want++ {
		got := <-all.C()
		if got.Seq != want {
			t.Fatalf("seq %d, want %d", got.Seq, want)
		}
	}
	// Filtered subscriber sees only channel a, still in order.
	seqs := []uint64{}
	for i := 0; i < 3; i++ {
		s := <-filtered.C()
		if s.Channel != "a" {
			t.Fatalf("filtered subscriber got channel %q", s.Channel)
		}
		seqs = append(seqs, s.Seq)
	}
	if seqs[0] != 1 || seqs[1] != 2 || seqs[2] != 4 {
		t.Fatalf("filtered seqs %v", seqs)
	}
	published, dropped := hub.Stats()
	if published != 4 || dropped != 0 {
		t.Fatalf("stats %d/%d, want 4/0", published, dropped)
	}
}

func TestPublishBatchDropsForSlowConsumer(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	slow, err := hub.Subscribe(2)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]Sample, 10)
	for i := range batch {
		batch[i] = Sample{Channel: "c", T: float64(i)}
	}
	hub.PublishBatch(batch)
	if got := slow.Dropped(); got != 8 {
		t.Fatalf("slow subscriber dropped %d, want 8", got)
	}
	published, dropped := hub.Stats()
	if published != 10 || dropped != 8 {
		t.Fatalf("stats %d/%d, want 10/8", published, dropped)
	}
	// The two buffered samples are the first two, in order.
	if s := <-slow.C(); s.Seq != 1 {
		t.Fatalf("first kept seq %d", s.Seq)
	}
	if s := <-slow.C(); s.Seq != 2 {
		t.Fatalf("second kept seq %d", s.Seq)
	}
}

func TestPublishBatchRetention(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	hub.SetRetention(2)
	hub.PublishBatch([]Sample{
		{Channel: "a", Value: 1},
		{Channel: "a", Value: 2},
		{Channel: "a", Value: 3},
	})
	sub, err := hub.SubscribeWithCatchUp(8, "a")
	if err != nil {
		t.Fatal(err)
	}
	if s := <-sub.C(); s.Value != 2 {
		t.Fatalf("first retained value %v, want 2", s.Value)
	}
	if s := <-sub.C(); s.Value != 3 {
		t.Fatalf("second retained value %v, want 3", s.Value)
	}
}

func TestPublishBatchEmptyAndClosed(t *testing.T) {
	hub := NewHub()
	hub.PublishBatch(nil)
	hub.Close()
	hub.PublishBatch([]Sample{{Channel: "a"}})
	published, _ := hub.Stats()
	if published != 0 {
		t.Fatalf("published %d on empty/closed hub", published)
	}
}

// TestCancelRacingFanOutDoesNotPanic hammers the snapshot→deliver window:
// subscribers cancel immediately after subscribing while publishers fan out
// continuously. Before publishers held fanMu across the mu release, a
// cancel completing in that gap closed a snapshotted channel and the
// subsequent send panicked ("send on closed channel").
func TestCancelRacingFanOutDoesNotPanic(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			batch := make([]Sample, 4)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if p == 0 {
					hub.Publish(Sample{Channel: "a", T: float64(i)})
				} else {
					hub.PublishBatch(batch)
				}
			}
		}(p)
	}
	// Tight subscribe/cancel churn with tiny buffers keeps subscribers inside
	// publisher snapshots at the moment their channels close.
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				sub, err := hub.Subscribe(1)
				if err != nil {
					t.Errorf("subscribe: %v", err)
					return
				}
				sub.Cancel()
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestConcurrentPublishSubscribeCancel hammers the hub with publishers,
// batch publishers, and subscribers that cancel mid-stream — meaningful
// under -race, and exercises the close-vs-send guard.
func TestConcurrentPublishSubscribeCancel(t *testing.T) {
	hub := NewHub()
	defer hub.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			batch := make([]Sample, 8)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if p%2 == 0 {
					hub.Publish(Sample{Channel: "a", T: float64(i)})
				} else {
					for j := range batch {
						batch[j] = Sample{Channel: "b", T: float64(i + j)}
					}
					hub.PublishBatch(batch)
				}
			}
		}(p)
	}
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sub, err := hub.Subscribe(4, []string{"a", "b"}[i%2])
				if err != nil {
					t.Errorf("subscribe: %v", err)
					return
				}
				// Drain a little, then cancel while publishers are active.
				for j := 0; j < 3; j++ {
					select {
					case <-sub.C():
					default:
					}
				}
				sub.Cancel()
			}
		}(s)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}
