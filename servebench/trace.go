package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"quamax/internal/backend"
	"quamax/internal/fronthaul"
	"quamax/internal/metrics"
	"quamax/internal/rng"
	"quamax/internal/router"
)

// The traced run wraps each layer boundary the program exposes: the
// dispatcher the fronthaul server calls, each shard the router calls, and
// each backend a scheduler calls. A request is followed across layers by a
// hash of its received vector, which every layer sees unchanged (a precode's
// vector is its VP target, which the client computes the same way). Spans
// are kept in memory and joined when the phase ends.

// yKey hashes a received vector (FNV-1a over the float64 bits).
func yKey(y []complex128) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range y {
		for _, f := range [2]float64{real(c), imag(c)} {
			b := math.Float64bits(f)
			for i := 0; i < 8; i++ {
				h ^= b & 0xff
				h *= 1099511628211
				b >>= 8
			}
		}
	}
	return h
}

// span is one timed call, in nanoseconds since the tracer started.
type span struct{ start, end int64 }

func (s span) micros() float64 { return float64(s.end-s.start) / 1e3 }

type clientSpan struct {
	span
	kind kind
}

// dispSpan is one dispatcher call with the result fields the wire drops.
type dispSpan struct {
	span
	failed   bool
	backend  string
	batched  int
	reads    int
	broken   int
	compile  float64
	keyed    bool
	compute  float64
	deadline time.Duration
}

type shardSpan struct {
	span
	shard int
}

// solveCall is one backend Solve or SolveBatch call.
type solveCall struct {
	span
	class   string // qpu, sa or sphere
	reads   int
	compile float64 // µs the call spent compiling channel programs
}

// tracer collects the spans of one traced phase. Spans of one key are kept
// in arrival order, so a key that recurs (a workload's input pool, cycled
// through) pairs its i-th client span with its i-th span at every other
// layer.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	client map[uint64][]clientSpan
	disp   map[uint64][]dispSpan
	shard  map[uint64][]shardSpan
	solve  map[uint64][]span
	calls  []solveCall
	qpus   int // QPU backends wrapped
}

func newTracer() *tracer {
	return &tracer{
		t0:     time.Now(),
		client: make(map[uint64][]clientSpan),
		disp:   make(map[uint64][]dispSpan),
		shard:  make(map[uint64][]shardSpan),
		solve:  make(map[uint64][]span),
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// reset drops every span and solve call recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.client)
	clear(t.disp)
	clear(t.shard)
	clear(t.solve)
	t.calls = nil
}

func (t *tracer) clientStart(key uint64, k kind) {
	s := clientSpan{span: span{start: t.now()}, kind: k}
	t.mu.Lock()
	t.client[key] = append(t.client[key], s)
	t.mu.Unlock()
}

// clientEnd closes the key's oldest open client span (a request that failed
// before it was sent has none, and is skipped).
func (t *tracer) clientEnd(key uint64) {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.client[key]
	for i := range spans {
		if spans[i].end == 0 {
			spans[i].end = end
			return
		}
	}
}

// tracedDispatcher times the fronthaul server's calls into the router.
type tracedDispatcher struct {
	inner fronthaul.Dispatcher
	t     *tracer
}

func (t *tracer) wrapDispatcher(d fronthaul.Dispatcher) fronthaul.Dispatcher {
	return &tracedDispatcher{inner: d, t: t}
}

func (d *tracedDispatcher) Dispatch(ctx context.Context, p *backend.Problem, deadline time.Duration) (*backend.Result, error) {
	start := d.t.now()
	res, err := d.inner.Dispatch(ctx, p, deadline)
	s := dispSpan{span: span{start, d.t.now()}, failed: err != nil, keyed: p.ChannelKey != 0, deadline: deadline}
	if res != nil {
		s.backend, s.batched, s.reads, s.broken = res.Backend, res.Batched, res.Reads, res.BrokenChains
		s.compile, s.compute = res.CompileMicros, res.ComputeMicros
	}
	key := yKey(p.Y)
	d.t.mu.Lock()
	d.t.disp[key] = append(d.t.disp[key], s)
	d.t.mu.Unlock()
	return res, err
}

// tracedShard times the router's calls into one shard's scheduler.
type tracedShard struct {
	inner router.Shard
	idx   int
	t     *tracer
}

func (t *tracer) wrapShard(i int, s router.Shard) router.Shard {
	return &tracedShard{inner: s, idx: i, t: t}
}

func (s *tracedShard) Dispatch(ctx context.Context, p *backend.Problem, deadline time.Duration) (*backend.Result, error) {
	start := s.t.now()
	res, err := s.inner.Dispatch(ctx, p, deadline)
	sp := shardSpan{span: span{start, s.t.now()}, shard: s.idx}
	key := yKey(p.Y)
	s.t.mu.Lock()
	s.t.shard[key] = append(s.t.shard[key], sp)
	s.t.mu.Unlock()
	return res, err
}

func (s *tracedShard) Stats() metrics.PoolStats { return s.inner.Stats() }

// tracedBackend times a scheduler's calls into a single-problem backend.
type tracedBackend struct {
	inner backend.Backend
	class string
	t     *tracer
}

func (b *tracedBackend) Describe() *backend.Capabilities { return b.inner.Describe() }

func (b *tracedBackend) Solve(ctx context.Context, p *backend.Problem, src *rng.Source) (*backend.Result, error) {
	start := b.t.now()
	res, err := b.inner.Solve(ctx, p, src)
	var rs []*backend.Result
	if res != nil {
		rs = []*backend.Result{res}
	}
	b.t.solved(b.class, []*backend.Problem{p}, rs, span{start, b.t.now()})
	return res, err
}

type channelCacheStatser interface {
	ChannelCacheStats() metrics.ChannelCacheStats
}

// tracedAnnealer is tracedBackend for a batching backend with a compiled-
// channel cache. It must keep both interfaces: the scheduler batches only
// through backend.BatchBackend and reads cache counters only through
// ChannelCacheStats, so losing either would trace a different program.
type tracedAnnealer struct {
	tracedBackend
	batch backend.BatchBackend
	cache channelCacheStatser
}

func (b *tracedAnnealer) BatchSlots(p *backend.Problem) int { return b.batch.BatchSlots(p) }

func (b *tracedAnnealer) SolveBatch(ctx context.Context, ps []*backend.Problem, src *rng.Source) ([]*backend.Result, error) {
	start := b.t.now()
	rs, err := b.batch.SolveBatch(ctx, ps, src)
	b.t.solved(b.class, ps, rs, span{start, b.t.now()})
	return rs, err
}

func (b *tracedAnnealer) ChannelCacheStats() metrics.ChannelCacheStats {
	return b.cache.ChannelCacheStats()
}

func (t *tracer) solved(class string, ps []*backend.Problem, rs []*backend.Result, sp span) {
	c := solveCall{span: sp, class: class}
	for _, r := range rs {
		if r.Reads > c.reads {
			c.reads = r.Reads
		}
		c.compile += r.CompileMicros
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.calls = append(t.calls, c)
	for _, p := range ps {
		k := yKey(p.Y)
		t.solve[k] = append(t.solve[k], sp)
	}
}

// wrap returns the traced twin of be, refusing one that would drop an
// interface or descriptor the scheduler relies on.
func (t *tracer) wrap(be backend.Backend) (backend.Backend, error) {
	caps := be.Describe()
	class := "other"
	for _, c := range []string{"qpu", "sa", "sphere"} {
		if strings.HasSuffix(strings.TrimRight(caps.Name, "0123456789"), c) {
			class = c
		}
	}
	base := tracedBackend{inner: be, class: class, t: t}
	var out backend.Backend = &base
	bb, isBatch := be.(backend.BatchBackend)
	cs, hasCache := be.(channelCacheStatser)
	if isBatch && hasCache {
		out = &tracedAnnealer{tracedBackend: base, batch: bb, cache: cs}
	}
	if class == "qpu" {
		t.qpus++
	}
	if err := sameSurface(be, out); err != nil {
		return nil, err
	}
	return out, nil
}

// sameSurface reports whether wrapped offers everything orig offers to the
// scheduler: batching, cache counters and the very same descriptor.
func sameSurface(orig, wrapped backend.Backend) error {
	name := orig.Describe().Name
	if _, ok := orig.(backend.BatchBackend); ok {
		if _, ok := wrapped.(backend.BatchBackend); !ok {
			return fmt.Errorf("traced %s lost backend.BatchBackend", name)
		}
	}
	if _, ok := orig.(channelCacheStatser); ok {
		if _, ok := wrapped.(channelCacheStatser); !ok {
			return fmt.Errorf("traced %s lost ChannelCacheStats", name)
		}
	}
	if wrapped.Describe() != orig.Describe() {
		return fmt.Errorf("traced %s describes different capabilities", name)
	}
	return nil
}

// wrapWorkers wraps one shard's pool, keeping a backend that serves as both
// pool member and fallback one instance, as the scheduler expects.
func (t *tracer) wrapWorkers(pool []backend.Backend, fallback backend.Backend) ([]backend.Backend, backend.Backend, error) {
	seen := make(map[backend.Backend]backend.Backend)
	get := func(be backend.Backend) (backend.Backend, error) {
		if w, ok := seen[be]; ok {
			return w, nil
		}
		w, err := t.wrap(be)
		if err != nil {
			return nil, err
		}
		seen[be] = w
		return w, nil
	}
	out := make([]backend.Backend, len(pool))
	for i, be := range pool {
		w, err := get(be)
		if err != nil {
			return nil, nil, err
		}
		out[i] = w
	}
	var fb backend.Backend
	if fallback != nil {
		w, err := get(fallback)
		if err != nil {
			return nil, nil, err
		}
		fb = w
	}
	return out, fb, nil
}

// layerMetrics joins the spans of a finished phase into the per-layer
// metrics that need them.
func (t *tracer) layerMetrics(elapsed time.Duration, attempted int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var feSelf, rtSelf, wait, precode, compile []float64
	perShard := make([]int, shards)
	var batched, served, saServed, qpuReads, qpuServed int
	var broken int
	var lateQPU float64
	for key, cs := range t.client {
		ds, ss, bs := t.disp[key], t.shard[key], t.solve[key]
		for i, c := range cs {
			if c.end == 0 {
				continue
			}
			if c.kind == kindRawPrecode {
				precode = append(precode, c.micros())
			}
			if i >= len(ds) {
				continue
			}
			d := ds[i]
			feSelf = append(feSelf, c.micros()-d.micros())
			if !d.failed {
				served++
				batched += d.batched
				if strings.Contains(d.backend, "sa") {
					saServed++
				}
				if strings.Contains(d.backend, "qpu") {
					qpuServed++
					qpuReads += d.reads
					broken += d.broken
					if d.keyed {
						compile = append(compile, d.compile)
					}
					if d.deadline > 0 && time.Duration(d.end-d.start) > d.deadline {
						lateQPU += d.compute
					}
				}
			}
			if i >= len(ss) {
				continue
			}
			s := ss[i]
			perShard[s.shard]++
			rtSelf = append(rtSelf, d.micros()-s.micros())
			if i < len(bs) {
				wait = append(wait, s.micros()-bs[i].micros())
			}
		}
	}
	solveUs := map[string][]float64{}
	var qpuBusy, qpuReadsRun, qpuNet float64
	for _, c := range t.calls {
		solveUs[c.class] = append(solveUs[c.class], c.micros())
		if c.class == "qpu" {
			qpuBusy += c.micros()
			qpuReadsRun += float64(c.reads)
			qpuNet += c.micros() - c.compile
		}
	}
	m := map[string]float64{
		"fronthaul.self_us_p50":       quantile(feSelf, 0.50),
		"fronthaul.self_us_p99":       quantile(feSelf, 0.99),
		"router.self_us_p50":          quantile(rtSelf, 0.50),
		"router.shard_imbalance":      imbalance(perShard),
		"sched.wait_us_p50":           quantile(wait, 0.50),
		"sched.wait_us_p99":           quantile(wait, 0.99),
		"sched.batch_mean":            ratio(float64(batched), float64(served)),
		"sched.fallback_share":        ratio(float64(saServed), float64(served)),
		"sched.late_qpu_us":           ratio(lateQPU, float64(attempted)),
		"qos.reads_mean":              ratio(float64(qpuReads), float64(qpuServed)),
		"backend.qpu.solve_us_p50":    quantile(solveUs["qpu"], 0.50),
		"backend.qpu.solve_us_p99":    quantile(solveUs["qpu"], 0.99),
		"backend.sa.solve_us_p50":     quantile(solveUs["sa"], 0.50),
		"backend.sphere.solve_us_p50": quantile(solveUs["sphere"], 0.50),
		"backend.qpu.busy_share":      ratio(qpuBusy, float64(elapsed.Microseconds())*float64(t.qpus)),
		"core.compile_us_p50":         quantile(compile, 0.50),
		"anneal.reads_per_s":          ratio(qpuReadsRun*1e6, qpuNet),
		"anneal.chain_break_ratio":    ratio(float64(broken), float64(qpuReads)),
		"precoding.req_us_p50":        quantile(precode, 0.50),
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// imbalance is the busiest shard's request count over the mean.
func imbalance(counts []int) float64 {
	total, most := 0, 0
	for _, c := range counts {
		total += c
		if c > most {
			most = c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(most) * float64(len(counts)) / float64(total)
}
