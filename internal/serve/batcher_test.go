package serve

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"hotspot/internal/feature"
	"hotspot/internal/geom"
	"hotspot/internal/obs/trace"
	"hotspot/internal/parallel"
	"hotspot/internal/raster"
)

func testFeatureCfg() feature.TensorConfig {
	return feature.TensorConfig{Blocks: 4, K: 8, ResNM: 4, Normalize: true}
}

// TestEnqueueBackpressure exercises the bounded queue directly: a batcher
// whose flush loop is never started accepts exactly QueueSize requests,
// then fails fast with ErrQueueFull.
func TestEnqueueBackpressure(t *testing.T) {
	b := newBatcher(nil, 2, 4, time.Millisecond, parallel.New(1))
	mk := func() *request {
		return &request{im: raster.NewImage(4, 4), resp: make(chan result, 1)}
	}
	if err := b.enqueue(mk()); err != nil {
		t.Fatal(err)
	}
	if err := b.enqueue(mk()); err != nil {
		t.Fatal(err)
	}
	if err := b.enqueue(mk()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third enqueue on a 2-slot queue: %v, want ErrQueueFull", err)
	}
}

// TestEnqueueAfterClose: once Close returns, every enqueue is refused
// with ErrShuttingDown and every request accepted before Close was
// answered.
func TestEnqueueAfterClose(t *testing.T) {
	s, err := New(Config{
		Feature:        testFeatureCfg(),
		CoreSide:       192,
		MaxBatch:       4,
		MaxWait:        time.Millisecond,
		QueueSize:      8,
		RequestTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// No model loaded: accepted requests drain with ErrNoModel, which is
	// still an answer — the invariant is one result per accepted request.
	reqs := make([]*request, 4)
	for i := range reqs {
		reqs[i] = &request{im: raster.NewImage(48, 48), resp: make(chan result, 1)}
		if err := s.batcher.enqueue(reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	for i, r := range reqs {
		select {
		case res := <-r.resp:
			if !errors.Is(res.err, ErrNoModel) {
				t.Fatalf("request %d: err %v, want ErrNoModel", i, res.err)
			}
		default:
			t.Fatalf("request %d accepted before Close was never answered", i)
		}
	}
	late := &request{im: raster.NewImage(48, 48), resp: make(chan result, 1)}
	if err := s.batcher.enqueue(late); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("enqueue after Close: %v, want ErrShuttingDown", err)
	}
	// Close is idempotent.
	s.Close()
}

// TestClipCacheLRU covers insert, hit, LRU eviction order, clear, and the
// disabled (cap 0) mode.
func TestClipCacheLRU(t *testing.T) {
	c := newClipCache(2)
	c.add(1, 0.1)
	c.add(2, 0.2)
	if p, ok := c.get(1); !ok || p != 0.1 {
		t.Fatalf("get(1) = %v,%v", p, ok)
	}
	// 1 is now most recent; adding 3 evicts 2.
	c.add(3, 0.3)
	if _, ok := c.get(2); ok {
		t.Fatal("LRU kept the least recently used entry")
	}
	if _, ok := c.get(1); !ok {
		t.Fatal("LRU evicted the most recently used entry")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	// Refreshing an existing key updates in place, no growth.
	c.add(1, 0.9)
	if p, _ := c.get(1); p != 0.9 {
		t.Fatalf("refresh did not update: %v", p)
	}
	if c.len() != 2 {
		t.Fatalf("len after refresh = %d, want 2", c.len())
	}
	c.clear()
	if c.len() != 0 {
		t.Fatalf("len after clear = %d", c.len())
	}
	if _, ok := c.get(1); ok {
		t.Fatal("clear left an entry behind")
	}

	off := newClipCache(0)
	off.add(1, 0.5)
	if _, ok := off.get(1); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if off.len() != 0 {
		t.Fatal("disabled cache reports entries")
	}
}

// TestHashImageDistinguishes: images differing in one pixel bit or in
// shape hash differently, and hashing is reproducible.
func TestHashImageDistinguishes(t *testing.T) {
	a := raster.NewImage(8, 8)
	a.Set(3, 4, 0.25)
	b := a.Clone()
	if hashImage(a) != hashImage(b) {
		t.Fatal("equal images hash differently")
	}
	b.Set(3, 4, 0.250000000000001)
	if hashImage(a) == hashImage(b) {
		t.Fatal("a one-ulp pixel change did not change the hash")
	}
	wide := raster.NewImage(16, 4) // same pixel count, different shape
	tall := raster.NewImage(4, 16)
	if hashImage(wide) == hashImage(tall) {
		t.Fatal("shape is not part of the hash")
	}
	// Rows A, A, B and A, B, B have the same distinct rows, A then B;
	// only the marks tell them apart.
	aab, abb := raster.NewImage(2, 3), raster.NewImage(2, 3)
	copy(aab.Pix, []float64{0.25, 0.5, 0.25, 0.5, 1, 0})
	copy(abb.Pix, []float64{0.25, 0.5, 1, 0, 1, 0})
	aab.MarkRows()
	abb.MarkRows()
	if hashImage(aab) == hashImage(abb) {
		t.Fatal("the row marks are not part of the hash")
	}
	// 70 rows take two words of marks. With no row repeating the row
	// above, marking the image changes nothing the hash reads.
	rows := raster.NewImage(5, 70)
	for i := range rows.Pix {
		rows.Pix[i] = float64(i) / 350
	}
	unmarked := hashImage(rows)
	rows.MarkRows()
	if hashImage(rows) != unmarked {
		t.Fatal("marks with no repeated row changed the hash")
	}
}

// TestHashImageBitFlips: flipping any one of a sample of bits in any pixel
// of an unmarked image changes the hash — each 3-pixel row of the 3×3
// image is a row tail, its pixels fed to the first three lanes — and no
// two flips collide. Swapping W and H over the same pixels changes it
// too.
func TestHashImageBitFlips(t *testing.T) {
	base := raster.NewImage(3, 3)
	for i := range base.Pix {
		base.Pix[i] = float64(i+1) / 16
	}
	seen := map[uint64]string{hashImage(base): "base"}
	for _, px := range []int{0, 1, 2, 3, 4, 7, 8} {
		for _, bit := range []uint{0, 1, 31, 52, 62, 63} {
			im := base.Clone()
			im.Pix[px] = math.Float64frombits(math.Float64bits(im.Pix[px]) ^ 1<<bit)
			what := fmt.Sprintf("pixel %d bit %d", px, bit)
			h := hashImage(im)
			if prev, dup := seen[h]; dup {
				t.Fatalf("%s hashes like %s", what, prev)
			}
			seen[h] = what
		}
	}
	wide := &raster.Image{W: 3, H: 2, Pix: base.Pix[:6]}
	tall := &raster.Image{W: 2, H: 3, Pix: base.Pix[:6]}
	if hashImage(wide) == hashImage(tall) {
		t.Fatal("swapping W and H over the same pixels kept the hash")
	}
}

// TestCenteredCore pins the default-core geometry.
func TestCenteredCore(t *testing.T) {
	got := CenteredCore(geom.R(0, 0, 480, 480), 192)
	want := geom.R(144, 144, 336, 336)
	if got != want {
		t.Fatalf("CenteredCore = %+v, want %+v", got, want)
	}
	// Core == frame.
	if got := CenteredCore(geom.R(10, 20, 1210, 1220), 1200); got != geom.R(10, 20, 1210, 1220) {
		t.Fatalf("full-frame core = %+v", got)
	}
}

// TestConfigValidate rejects the obvious misconfigurations.
func TestConfigValidate(t *testing.T) {
	good := Config{
		Feature: testFeatureCfg(), CoreSide: 192, MaxBatch: 4,
		MaxWait: time.Millisecond, QueueSize: 8, RequestTimeout: time.Second,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.CoreSide = 100 // 25 px does not divide into 4 blocks
	if bad.Validate() == nil {
		t.Fatal("accepted an indivisible core")
	}
	bad = good
	bad.MaxBatch = 0
	if bad.Validate() == nil {
		t.Fatal("accepted MaxBatch 0")
	}
	bad = good
	bad.MaxWait = 0
	if bad.Validate() == nil {
		t.Fatal("accepted MaxWait 0 with batching on")
	}
	bad = good
	bad.QueueSize = 0
	if bad.Validate() == nil {
		t.Fatal("accepted QueueSize 0")
	}
	bad = good
	bad.RequestTimeout = 0
	if bad.Validate() == nil {
		t.Fatal("accepted RequestTimeout 0")
	}
	// MaxBatch 1 needs no deadline.
	solo := good
	solo.MaxBatch = 1
	solo.MaxWait = 0
	if err := solo.Validate(); err != nil {
		t.Fatal(err)
	}
}

// darkTraceSequence replays exactly the stage and trace calls the predict
// handler and the batcher make per single-clip request, stage-summary
// observations included: the zero-allocations-when-dark contract,
// measured where it matters.
func darkTraceSequence(tracer *trace.Tracer, m *metrics) {
	st := tracer.Stage("predict", m.requestSum)
	root := st.Span()
	for _, name := range []string{"decode", "raster", "hash"} {
		root.Stage(name, nil).End()
	}
	m.cache(false)
	root.SetBool("cache_hit", false)
	req := request{queue: root.Stage(stageQueue, m.queueSum)}

	bst := tracer.Stage(stageBatch, m.batchSum)
	bsp, btr := bst.Span(), bst.Trace()
	m.batch(1)
	bsp.SetInt("size", 1)
	bsp.SetInt("model_generation", 1)
	req.queue.End()
	req.queue.Span().SetStr("batch_id", btr.ID())
	if btr != nil {
		bsp.SetStr("member_0", req.queue.Trace().ID())
	}
	bsp.Stage(stageExtract, m.extractSum).End()
	_ = bsp.Stage(stageInfer, m.inferSum).Done(nil)
	bst.End()

	st.Trace().SetStatus(200)
	st.End()
}

// TestBatcherDarkTraceZeroAlloc pins the hot-path contract directly:
// with tracing disabled the full per-request instrumentation sequence,
// every stage-summary observation included, allocates nothing.
func TestBatcherDarkTraceZeroAlloc(t *testing.T) {
	m := newMetrics(func() int { return 0 })
	allocs := testing.AllocsPerRun(200, func() {
		darkTraceSequence(nil, m)
	})
	if allocs != 0 {
		t.Fatalf("dark batcher tracing allocated %.1f times per run, want 0", allocs)
	}
	if got := m.requestSum.Count(); got != 201 { // AllocsPerRun adds one warm-up run
		t.Fatalf("request summary counted %d observations, want 201", got)
	}
}

// BenchmarkBatcherDarkTrace is the 0 B/op acceptance benchmark for the
// serving hot path with tracing disabled.
func BenchmarkBatcherDarkTrace(b *testing.B) {
	m := newMetrics(func() int { return 0 })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		darkTraceSequence(nil, m)
	}
}
