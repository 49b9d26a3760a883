// Command servebench is the serving benchmark: it assembles the QuAMax
// serving tier in-process the way cmd/quamax-serve does (two scheduler
// shards behind the channel-affinity router, served by the fronthaul pool
// server on loopback TCP), drives it from an AP client with at most two
// pipelined connections, checks every response, and prints one JSON line of
// metrics. See README.md for the workloads and metrics.
//
//	bash servebench/run.sh --workload cran-steady --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same inputs
// twice, untraced and then with every layer boundary wrapped, and reports
// the per-layer metrics plus the tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"quamax/internal/metrics"
	"quamax/internal/rng"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// Limits that keep a run inside its time budget: the whole process gives
// up after runLimit. setups is how many extra set-ups are timed before the
// measured phase and again after it, so setup_s is the median of 2·setups+1.
const (
	runLimit    = 170 * time.Second
	setups      = 10
	warmups     = 32
	leakTimeout = 5 * time.Second
	warmSeed    = 1
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is one measured pass of a workload over a stack.
type phase struct {
	w       *workload
	arrs    []arrival
	length  time.Duration // scheduled length
	t       *tally
	elapsed time.Duration
	p0, p1  procSnap
	heapMB  []float64 // per send window
	per     []metrics.PoolStats
	sheds   uint64
	wire    int64
	layers  map[string]float64 // traced phases only
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed the inputs are drawn from")
	seconds := fs.Int("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "servebench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintf(stderr, "servebench: no result within %v\n", runLimit)
		os.Exit(3)
	})
	defer watchdog.Stop()

	res, problems, err := measureWorkload(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 2
	}
	return emit(stdout, stderr, res, problems)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// emit prints the result line. A run with any failed check reports
// correct=false with no metrics and exits non-zero.
func emit(stdout, stderr io.Writer, res result, problems []error) int {
	code := 0
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(stderr, "servebench: check failed: %v\n", p)
		}
		res.Correct = false
		res.Metrics = map[string]metric{}
		code = 1
	} else {
		res.Correct = true
		for name, m := range res.Metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				fmt.Fprintf(stderr, "servebench: metric %s is %v\n", name, m.Value)
				return 2
			}
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	return code
}

// inputs are one run's generated requests: the arrival schedule, split by
// connection, plus the warm-up requests every set-up sends.
type inputs struct {
	arrs   []arrival
	byConn [][]int // indices into arrs, per connection
	warm   []request
}

func genInputs(w *workload, seed int64, d time.Duration) (*inputs, error) {
	src := rng.New(seed)
	in := &inputs{}
	var err error
	if in.arrs, err = w.schedule(src.Split(), d); err != nil {
		return nil, err
	}
	in.byConn = make([][]int, conns)
	for i, a := range in.arrs {
		in.byConn[a.req.conn] = append(in.byConn[a.req.conn], i)
	}
	// The warm-up set is the same on every run, so set-up does the same work
	// whatever the seed.
	if in.warm, err = w.gen(rng.New(warmSeed), warmups); err != nil {
		return nil, err
	}
	return in, nil
}

// setUp builds a stack and warms it with the warm-up requests, sent one at
// a time, so lazy work (embedding searches, first compiles) is done before
// measurement. The warm-up replies are checked like any other.
func setUp(w *workload, seed int64, in *inputs, tr *tracer) (*stack, *tally, error) {
	st, err := buildStack(w, seed, tr)
	if err != nil {
		return nil, nil, err
	}
	t := newTally(len(in.warm))
	d := newDriver(w, st, nil, t)
	for i := range in.warm {
		d.issue(i, &in.warm[i], time.Now(), false, nil)
	}
	return st, t, nil
}

// timeSetUps sets up, and closes again, n stacks. It returns each set-up's
// seconds and the warm-up's failed checks.
func timeSetUps(w *workload, seed int64, in *inputs, n int) ([]float64, []error, error) {
	var secs []float64
	var problems []error
	for i := 0; i < n; i++ {
		start := time.Now()
		st, t, err := setUp(w, seed, in, nil)
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if t.checkErr != nil {
			problems = append(problems, fmt.Errorf("warm-up: %w", t.checkErr))
		}
		if err := st.close(); err != nil {
			return nil, nil, err
		}
	}
	return secs, problems, nil
}

// measurePhase drives one phase and reads every counter it reports. All
// the phase's bookkeeping is allocated before the heap baseline is read.
func measurePhase(w *workload, st *stack, tr *tracer, in *inputs, d time.Duration) (*phase, error) {
	t := newTally(len(in.arrs))
	drv := newDriver(w, st, tr, t)
	sleepers := make([]*sleeper, len(in.byConn))
	for i := range sleepers {
		s, err := newSleeper()
		if err != nil {
			return nil, err
		}
		defer s.close()
		sleepers[i] = s
	}
	if tr != nil {
		tr.reset() // the warm-up's spans are not part of the phase
	}
	runtime.GC()
	hp := startHeapPeak(d, w.windows)
	p := &phase{w: w, arrs: in.arrs, length: d, t: t, p0: readProc()}
	var err error
	if p.elapsed, err = drv.runOpen(in.arrs, in.byConn, sleepers); err != nil {
		return nil, err
	}
	p.p1 = readProc()
	for _, b := range hp.stop() {
		p.heapMB = append(p.heapMB, b/1e6)
	}
	p.per, p.sheds = st.shardStats()
	p.wire = st.wire.Load()
	if tr != nil {
		p.layers = tr.layerMetrics(p.elapsed, t.attempted)
	}
	return p, nil
}

// measureWorkload runs the set-ups and phases of one invocation and turns
// them into the result and the list of failed checks.
func measureWorkload(w *workload, seed int64, d time.Duration, traced bool, stderr io.Writer) (result, []error, error) {
	if traced {
		// Both phases share the run's length and the same inputs.
		d = (d + time.Second) / 2
	}
	in, err := genInputs(w, seed, d)
	if err != nil {
		return result{}, nil, err
	}
	before := runtime.NumGoroutine()
	setupS, problems, err := timeSetUps(w, seed, in, setups)
	if err != nil {
		return result{}, nil, err
	}
	start := time.Now()
	st, warm, err := setUp(w, seed, in, nil)
	if err != nil {
		return result{}, nil, err
	}
	setupS = append(setupS, time.Since(start).Seconds())
	plain, err := measurePhase(w, st, nil, in, d)
	if err != nil {
		return result{}, nil, err
	}
	problems = append(problems, phaseProblems("untraced", plain, warm)...)
	if err := st.close(); err != nil {
		return result{}, nil, err
	}

	var tp *phase
	if traced {
		tr := newTracer()
		s, t, err := setUp(w, seed, in, tr)
		if err != nil {
			return result{}, nil, err
		}
		if tp, err = measurePhase(w, s, tr, in, d); err != nil {
			return result{}, nil, err
		}
		problems = append(problems, phaseProblems("traced", tp, t)...)
		problems = append(problems, agree(plain, tp)...)
		if err := s.close(); err != nil {
			return result{}, nil, err
		}
	}
	more, moreProblems, err := timeSetUps(w, seed, in, setups)
	if err != nil {
		return result{}, nil, err
	}
	setupS = append(setupS, more...)
	problems = append(problems, moreProblems...)
	after := settleGoroutines(before, leakTimeout)
	if after > before {
		problems = append(problems, fmt.Errorf("%d goroutines before the run, %d after drain", before, after))
	}

	report(stderr, w, seed, plain, tp, setupS, before, after)
	res := result{Attempted: plain.t.attempted, Failed: plain.t.failed()}
	if !traced {
		res.Metrics = endToEnd(plain, setupS)
		return res, problems, nil
	}
	res.Attempted += tp.t.attempted
	res.Failed += tp.t.failed()
	res.Metrics = perLayer(plain, tp)
	return res, problems, nil
}

// phaseProblems lists a phase's failed checks: wrong outputs, and pool
// counters that do not reconcile with what the AP sent.
func phaseProblems(label string, p *phase, warm *tally) []error {
	var out []error
	if warm.checkErr != nil {
		out = append(out, fmt.Errorf("%s warm-up: %w", label, warm.checkErr))
	}
	if p.t.checkErr != nil {
		out = append(out, fmt.Errorf("%s: %w", label, p.t.checkErr))
	}
	if p.t.causes[causeTranspt] == 0 && warm.causes[causeTranspt] == 0 {
		if err := reconcile(p.per, p.sheds, p.t.reached+warm.reached); err != nil {
			out = append(out, fmt.Errorf("%s: %w", label, err))
		}
	}
	return out
}

// agree requires the traced run to batch and hit the cache like the
// untraced one: a wrapper that hid BatchBackend or ChannelCacheStats from
// the scheduler would trace a different program.
func agree(plain, traced *phase) []error {
	var out []error
	pb, tb := batchMean(plain), traced.layers["sched.batch_mean"]
	if !near(pb, tb) {
		out = append(out, fmt.Errorf("batch mean %.3f untraced vs %.3f traced", pb, tb))
	}
	pc, tc := cacheHit(plain), cacheHit(traced)
	if !near(pc, tc) {
		out = append(out, fmt.Errorf("cache hit ratio %.3f untraced vs %.3f traced", pc, tc))
	}
	return out
}

// near allows the two runs the spread that scheduling timing alone gives.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 0.02+0.15*math.Max(a, b)
}

func batchMean(p *phase) float64 { return ratio(float64(p.t.batched), float64(p.t.succeeded)) }

func merged(per []metrics.PoolStats) metrics.PoolStats {
	var m metrics.PoolStats
	for i, st := range per {
		if i == 0 {
			m = st
			continue
		}
		m = m.Merge(st)
	}
	return m
}

func cacheHit(p *phase) float64 { return merged(p.per).ChannelCache.HitRate() }

// endToEnd is what an AP sees: rates, latency from the scheduled send time,
// decode quality, and the process's CPU, heap and set-up time.
//
// The latency percentiles and the share of successes inside their deadline
// (goodput over throughput) are medians over equal windows of send time
// (workload.windows), so a stall of the shared machine that spans a minority
// of them moves none of the results. The heap peak is likewise the median of
// the windows' peaks.
func endToEnd(p *phase, setupS []float64) map[string]metric {
	t, n := p.t, p.w.windows
	lat := make([][]float64, n)
	for i, a := range p.arrs {
		if x := t.lat[i]; !math.IsNaN(x) {
			k := min(int(a.due*time.Duration(n)/p.length), n-1)
			lat[k] = append(lat[k], x)
		}
	}
	limit := float64(p.w.deadline) / float64(time.Millisecond)
	var inDeadline, p50, p99 []float64
	for _, xs := range lat {
		good := 0
		for _, x := range xs {
			if x <= limit {
				good++
			}
		}
		inDeadline = append(inDeadline, ratio(float64(good), float64(len(xs))))
		p50 = append(p50, quantile(xs, 0.50))
		p99 = append(p99, quantile(xs, 0.99))
	}
	throughput := float64(t.succeeded) / p.elapsed.Seconds()
	return map[string]metric{
		"throughput_dps": {throughput, "1/s"},
		"goodput_dps":    {throughput * median(inDeadline), "1/s"},
		"latency_p50_ms": {median(p50), "ms"},
		"latency_p99_ms": {median(p99), "ms"},
		"bit_accuracy":   {1 - ratio(float64(t.bitErr), float64(t.bitTotal)), "ratio"},
		"cpu_ms_per_req": {ratio(float64(p.p1.cpu-p.p0.cpu)/1e6, float64(t.succeeded)), "ms"},
		"heap_peak_mb":   {median(p.heapMB), "MB"},
		"setup_s":        {median(setupS), "s"},
	}
}

// perLayer joins the traced phase's spans with counters of both phases.
// Process counters and the generator's lateness come from the untraced
// phase, which they describe without the tracer's own cost.
func perLayer(plain, tp *phase) map[string]metric {
	m := map[string]metric{}
	for name, v := range tp.layers {
		m[name] = metric{v, layerUnit(name)}
	}
	tm := merged(tp.per)
	att := float64(tp.t.attempted)
	m["fronthaul.wire_bytes_per_req"] = metric{ratio(float64(tp.wire), att), "B"}
	m["fronthaul.handle_rejects"] = metric{float64(tp.t.causes[causeHandle]), "count"}
	m["router.sheds"] = metric{float64(tp.sheds), "count"}
	m["qos.denied_share"] = metric{ratio(float64(tm.PlannerClassical), float64(tm.Submitted)), "ratio"}
	m["core.cache_hit_ratio"] = metric{tm.ChannelCache.HitRate(), "ratio"}
	m["softout.llr_saturation_ratio"] = metric{ratio(float64(tp.t.llrSat), float64(tp.t.llrTotal)), "ratio"}

	pt := plain.t
	ok := float64(pt.succeeded)
	gcBusy := (plain.p1.gcCPU - plain.p0.gcCPU)
	busy := (plain.p1.totalCPU - plain.p0.totalCPU) - (plain.p1.idleCPU - plain.p0.idleCPU)
	m["runtime.allocs_per_req"] = metric{ratio(float64(plain.p1.allocs-plain.p0.allocs), ok), "count"}
	m["runtime.alloc_bytes_per_req"] = metric{ratio(float64(plain.p1.allocBytes-plain.p0.allocBytes), ok), "B"}
	m["runtime.gc_cpu_share"] = metric{ratio(gcBusy, busy), "ratio"}
	m["gen.late_us_p99"] = metric{quantile(pt.late, 0.99), "us"}
	m["precoding.gamma_mean"] = metric{ratio(pt.gamma, float64(pt.precodes)), "power"}
	m["backend.qpu.device_us_per_req"] = metric{ratio(pt.qpuMicro, ok), "us"}
	for _, c := range []string{causeShed, causeHandle, causeDead, causeRemote, causeTranspt} {
		m["fail."+strings.ReplaceAll(c, "-", "_")] = metric{float64(pt.causes[c]), "count"}
	}

	pe, te := endToEnd(plain, nil), endToEnd(tp, nil)
	for _, name := range []string{"throughput_dps", "latency_p50_ms", "cpu_ms_per_req"} {
		m["trace.overhead_"+name] = metric{te[name].Value - pe[name].Value, pe[name].Unit}
	}
	return m
}

func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_us") || strings.Contains(name, "_us_"):
		return "us"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_mean"):
		return "count"
	}
	return "ratio"
}

// report prints a human-readable account of the run to stderr.
func report(w io.Writer, wl *workload, seed int64, plain, tp *phase, setupS []float64, before, after int) {
	fmt.Fprintf(w, "servebench: workload %s seed %d; set-ups %v s; goroutines %d before, %d after drain\n",
		wl.name, seed, setupS, before, after)
	for _, p := range []*phase{plain, tp} {
		if p == nil {
			continue
		}
		label := "untraced"
		if p.layers != nil {
			label = "traced"
		}
		t := p.t
		var causes []string
		for c, n := range t.causes {
			causes = append(causes, fmt.Sprintf("%s=%d", c, n))
		}
		sort.Strings(causes)
		fmt.Fprintf(w, "  %s: %.2fs attempted %d succeeded %d failed %d %v; %d latency samples; generator late p50 %.0f µs p99 %.0f µs\n",
			label, p.elapsed.Seconds(), t.attempted, t.succeeded, t.failed(), causes, t.succeeded,
			median(t.late), quantile(append([]float64(nil), t.late...), 0.99))
		m := merged(p.per)
		fmt.Fprintf(w, "  %s: pool submitted %d completed %d failed %d fallback %d planner-denied %d misses %d cache hit %.3f batch mean %.3f\n",
			label, m.Submitted, m.Completed, m.Failed, m.FallbackDispatches, m.PlannerClassical, m.DeadlineMisses,
			m.ChannelCache.HitRate(), batchMean(p))
	}
}
