package main

import (
	"fmt"
	"math"
	"time"

	"quamax/internal/channel"
	"quamax/internal/linalg"
	"quamax/internal/mimo"
	"quamax/internal/modulation"
	"quamax/internal/precoding"
	"quamax/internal/rng"
	"quamax/internal/trace"
)

// kind is the fronthaul call one request makes.
type kind int

const (
	kindDecode     kind = iota // hard decode against a registered channel handle
	kindSoft                   // soft decode against a registered channel handle
	kindRawDecode              // hard decode carrying its own channel
	kindRawSoft                // soft decode carrying its own channel
	kindRawPrecode             // downlink precode carrying its own channel
	numKinds
)

var kindNames = [numKinds]string{"decode", "soft", "raw-decode", "raw-soft", "raw-precode"}

func (k kind) String() string { return kindNames[k] }

func (k kind) keyed() bool { return k == kindDecode || k == kindSoft }

func (k kind) soft() bool { return k == kindSoft || k == kindRawSoft }

// window is one coherence window of the C-RAN trace: every request carrying
// it observes the same channel, which the AP registers once per connection.
type window struct {
	id int
	h  *linalg.Mat
}

// request is one generated fronthaul call with its ground truth.
type request struct {
	conn int // client connection the AP sends on
	kind kind
	mod  modulation.Modulation
	win  *window     // keyed kinds
	h    *linalg.Mat // channel (uplink Nr×Nt, or downlink Nu×Nt for precodes)
	y    []complex128
	bits []byte // transmitted bits (decodes)
	// noiseVar is the per-antenna noise variance a soft request carries.
	noiseVar float64
	// prog is the client's own compile of a precode's VP program, used to
	// recompute γ from the returned perturbation; s is the symbol vector.
	prog *precoding.Program
	s    []complex128
	// exact marks noise-free decodes whose bits must equal the sent bits.
	exact bool
}

// stackKind selects the per-shard solver set.
type stackKind int

const (
	stackAnneal stackKind = iota // one simulated DW2Q annealer + SA fallback
	stackSphere                  // sphere decoders only, no annealer
)

// ratePhase is one piece of a piecewise-constant open-loop arrival rate.
type ratePhase struct {
	length time.Duration
	rate   float64 // requests per second
}

// arrival is one scheduled send of a generated request.
type arrival struct {
	due time.Duration // send offset from the start of the phase
	req *request
}

// workload is one traffic mix. Every workload is an open loop: requests are
// sent on a fixed schedule whatever the stack's speed. Every number here is
// a fixed input: a faster program must receive the same load, so nothing is
// calibrated at run time.
type workload struct {
	name  string
	stack stackKind
	// deadline and targetBER ride every request's QoS contract.
	deadline  time.Duration
	targetBER float64
	// window bounds the requests in flight per connection.
	window int
	// windows is how many send windows the latency medians are taken over;
	// each must hold at least 1,000 samples at 24 s runs so its p99 has ten
	// beyond it.
	windows int
	// pattern is the arrival rate, repeated for the whole run.
	pattern []ratePhase
	// tick, if set, holds arrivals back to multiples of tick, the way an AP
	// sends a radio frame's requests together at the frame boundary.
	tick time.Duration
	// pool, if set, is how many distinct requests the arrivals cycle
	// through; otherwise every arrival has its own.
	pool int
	// gen draws n requests in arrival order.
	gen func(src *rng.Source, n int) ([]request, error)
}

const conns = 2

var workloads = []*workload{
	{
		name: "cran-steady", stack: stackAnneal,
		deadline: 20 * time.Millisecond, targetBER: 1e-3, window: 1024, windows: 4,
		pattern: []ratePhase{{time.Second, 170}},
		gen:     genCRAN,
	},
	{
		name: "cran-burst", stack: stackAnneal,
		deadline: 20 * time.Millisecond, targetBER: 1e-3, window: 1024, windows: 4,
		pattern: []ratePhase{{time.Second / 10, 10000}, {29 * time.Second / 10, 60}},
		gen:     genCRAN,
	},
	{
		name: "cold-mixed", stack: stackAnneal,
		deadline: 20 * time.Millisecond, targetBER: 1e-3, window: 1024, windows: 4,
		pattern: []ratePhase{{time.Second, 200}},
		gen:     genCold,
	},
	{
		name: "small-frames", stack: stackSphere,
		deadline: 10 * time.Millisecond, window: 64, windows: 12,
		pattern: []ratePhase{{time.Second, 8000}}, tick: 10 * time.Millisecond, pool: 4096,
		gen: genSmall,
	},
}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// schedule draws the arrivals of a run of length d: evenly spaced inside
// each phase of the repeating rate pattern, then held back to the last tick.
func (w *workload) schedule(src *rng.Source, d time.Duration) ([]arrival, error) {
	var dues []time.Duration
	var t time.Duration
	for t < d {
		for _, ph := range w.pattern {
			gap := time.Duration(float64(time.Second) / ph.rate)
			end := t + ph.length
			for at := t; at < end && at < d; at += gap {
				due := at
				if w.tick > 0 {
					due -= due % w.tick
				}
				dues = append(dues, due)
			}
			t = end
		}
	}
	n := len(dues)
	if w.pool > 0 {
		n = min(n, w.pool)
	}
	reqs, err := w.gen(src, n)
	if err != nil {
		return nil, err
	}
	arrs := make([]arrival, len(dues))
	for i, due := range dues {
		arrs[i] = arrival{due: due, req: &reqs[i%len(reqs)]}
	}
	return arrs, nil
}

// uplink draws one 4×4 channel use through h.
func uplink(src *rng.Source, mod modulation.Modulation, h *linalg.Mat, snrDB float64) (*mimo.Instance, error) {
	bits := src.Bits(h.Cols * mod.BitsPerSymbol())
	return mimo.FromParts(src, mimo.Config{
		Mod: mod, Nt: h.Cols, Nr: h.Rows,
		Channel: channel.Fixed{H: h, Label: "bench"}, SNRdB: snrDB,
	}, h, bits)
}

// genCRAN replays a Zipf multi-cell trace: 16 cells of 4×4 QPSK at 20 dB and
// coherence windows of 16 uses on average. 96 subscribers keep each shard's
// live windows inside the default 64-entry compiled-channel cache. They are
// power-controlled (no shadowing) and each window's channel is mostly a
// fresh Rayleigh draw, so no few hot subscribers decide a whole run. Each
// cell's AP sends on one of the two connections; one decode in four is soft.
func genCRAN(src *rng.Source, n int) ([]request, error) {
	const cells = 16
	tr, err := trace.GenerateMultiUser(src.Split(), trace.MultiUserConfig{
		Cells: cells, Users: 96, Requests: n, ZipfS: 1.1,
		Antennas: 4, CellUsers: 4, WindowUses: 16,
		RiceanK: 0, Doppler: 0.5, ShadowStdDB: 0,
	})
	if err != nil {
		return nil, err
	}
	tr.Dataset().NormalizeAveragePower()
	windows := make(map[*linalg.Mat]*window)
	reqs := make([]request, n)
	for i, r := range tr.Requests {
		win := windows[r.H]
		if win == nil {
			win = &window{id: len(windows), h: r.H}
			windows[r.H] = win
		}
		in, err := uplink(src, modulation.QPSK, r.H, 20)
		if err != nil {
			return nil, err
		}
		k := kindDecode
		if i%4 == 3 {
			k = kindSoft
		}
		reqs[i] = request{
			conn: r.Cell % conns, kind: k, mod: in.Mod, win: win, h: r.H,
			y: in.Y, bits: in.TxBits, noiseVar: in.NoiseVariance(),
		}
	}
	return reqs, nil
}

// genCold gives every request a fresh 4×4 Rayleigh channel and no handle:
// raw hard decodes, raw soft decodes and raw QPSK precodes at 2:1:1.
func genCold(src *rng.Source, n int) ([]request, error) {
	reqs := make([]request, n)
	for i := range reqs {
		h := channel.Rayleigh{}.Generate(src, 4, 4)
		r := request{conn: i % conns, mod: modulation.QPSK, h: h}
		switch i % 4 {
		case 0, 1, 2:
			in, err := uplink(src, r.mod, h, 20)
			if err != nil {
				return nil, err
			}
			r.kind = kindRawDecode
			if i%4 == 2 {
				r.kind = kindRawSoft
			}
			r.y, r.bits, r.noiseVar = in.Y, in.TxBits, in.NoiseVariance()
		case 3:
			prog, err := precoding.Compile(r.mod, h, 0)
			if err != nil {
				return nil, err
			}
			r.kind, r.prog = kindRawPrecode, prog
			r.s = r.mod.MapGrayVector(src.Bits(h.Rows * r.mod.BitsPerSymbol()))
			r.y = prog.Target(r.s)
		}
		reqs[i] = r
	}
	return reqs, nil
}

// genSmall draws noise-free 4×4 BPSK uses, each on its own Rayleigh channel,
// so the exact sphere decoder must return the sent bits.
func genSmall(src *rng.Source, n int) ([]request, error) {
	reqs := make([]request, n)
	for i := range reqs {
		h := channel.Rayleigh{}.Generate(src, 4, 4)
		in, err := uplink(src, modulation.BPSK, h, math.Inf(1))
		if err != nil {
			return nil, err
		}
		reqs[i] = request{
			conn: i % conns, kind: kindRawDecode, mod: in.Mod, h: h,
			y: in.Y, bits: in.TxBits, exact: true,
		}
	}
	return reqs, nil
}
