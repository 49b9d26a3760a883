package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"quamax/internal/backend"
	"quamax/internal/linalg"
	"quamax/internal/metrics"
	"quamax/internal/rng"
)

// decodeReply answers r with its sent bits and their true energy.
func decodeReply(r *request) *reply {
	x := r.mod.MapGrayVector(r.bits)
	return &reply{
		bits:     append([]byte(nil), r.bits...),
		energy:   linalg.Norm2(linalg.VecSub(r.y, linalg.MulVec(r.h, x))),
		received: time.Now(),
	}
}

func genOne(t *testing.T, gen func(*rng.Source, int) ([]request, error), k kind) *request {
	t.Helper()
	reqs, err := gen(rng.New(7), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if reqs[i].kind == k {
			return &reqs[i]
		}
	}
	t.Fatalf("no %s request generated", k)
	return nil
}

func TestCheckAcceptsCorrectReplies(t *testing.T) {
	for _, k := range []kind{kindRawDecode, kindRawSoft} {
		r := genOne(t, genCold, k)
		rep := decodeReply(r)
		if k.soft() {
			rep.llr8 = make([]int8, len(rep.bits))
			for i, b := range rep.bits {
				rep.llr8[i] = int8(2*int(b)-1) * 100
			}
		}
		if err := check(r, rep); err != nil {
			t.Errorf("%s: %v", k, err)
		}
	}
	r := genOne(t, genCold, kindRawPrecode)
	v := make([]complex128, len(r.s))
	if err := check(r, &reply{v: v, energy: r.prog.Gamma(r.s, v)}); err != nil {
		t.Errorf("precode: %v", err)
	}
}

func TestCheckRejectsCorruptEnergy(t *testing.T) {
	r := genOne(t, genCold, kindRawDecode)
	rep := decodeReply(r)
	rep.energy *= 1.01
	if err := check(r, rep); err == nil {
		t.Fatal("a corrupted energy passed the check")
	}
}

func TestCheckRejectsCorruptGamma(t *testing.T) {
	r := genOne(t, genCold, kindRawPrecode)
	v := make([]complex128, len(r.s))
	rep := &reply{v: v, energy: r.prog.Gamma(r.s, v) * 0.99}
	if err := check(r, rep); err == nil {
		t.Fatal("a corrupted γ passed the check")
	}
	v[0] = complex(1, 0)
	rep = &reply{v: v, energy: r.prog.Gamma(r.s, make([]complex128, len(r.s)))}
	if err := check(r, rep); err == nil {
		t.Fatal("a corrupted perturbation passed the check")
	}
}

func TestCheckRejectsCorruptBits(t *testing.T) {
	// Noise-free: the flipped bit vector is reported with its own, correct
	// energy, so only the bit-exact check can catch it.
	r := genOne(t, genSmall, kindRawDecode)
	bad := *r
	bad.bits = append([]byte(nil), r.bits...)
	bad.bits[0] ^= 1
	rep := decodeReply(&bad)
	if err := check(r, rep); err == nil || !strings.Contains(err.Error(), "bit errors") {
		t.Fatalf("a corrupted noise-free bit vector passed the check: %v", err)
	}
	// Noisy: flipped bits no longer match the reported energy.
	r = genOne(t, genCold, kindRawDecode)
	rep = decodeReply(r)
	rep.bits[0] ^= 1
	if err := check(r, rep); err == nil {
		t.Fatal("a corrupted bit vector passed the energy check")
	}
}

func TestCheckRejectsLLRSignMismatch(t *testing.T) {
	r := genOne(t, genCold, kindRawSoft)
	rep := decodeReply(r)
	rep.llr8 = make([]int8, len(rep.bits))
	for i, b := range rep.bits {
		rep.llr8[i] = int8(1-2*int(b)) * 100 // every sign flipped
	}
	if err := check(r, rep); err == nil {
		t.Fatal("LLRs disagreeing with the hard bits passed the check")
	}
	rep.llr8 = rep.llr8[:1]
	if err := check(r, rep); err == nil {
		t.Fatal("a short LLR vector passed the check")
	}
}

// A run whose outputs fail their check exits non-zero and prints no
// metrics.
func TestFailedCheckPrintsNoMetrics(t *testing.T) {
	r := genOne(t, genCold, kindRawDecode)
	rep := decodeReply(r)
	rep.energy += 1
	tl := newTally(1)
	tl.record(0, r, time.Now(), rep)
	if tl.checkErr == nil || tl.succeeded != 0 {
		t.Fatalf("corrupt reply recorded as a success (err %v)", tl.checkErr)
	}
	res := result{Attempted: 1, Failed: tl.failed(), Metrics: map[string]metric{"latency_p50_ms": {1, "ms"}}}
	var out, errs bytes.Buffer
	if code := emit(&out, &errs, res, []error{tl.checkErr}); code == 0 {
		t.Fatal("failed check exited 0")
	}
	var got result
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("result line: %v (%q)", err, out.String())
	}
	if got.Correct || len(got.Metrics) != 0 {
		t.Fatalf("failed check reported %+v", got)
	}
}

func TestReconcile(t *testing.T) {
	ok := []metrics.PoolStats{{Submitted: 5, Completed: 4, Failed: 1}, {Submitted: 3, Completed: 3}}
	if err := reconcile(ok, 0, 8); err != nil {
		t.Fatal(err)
	}
	if err := reconcile(ok, 1, 9); err != nil {
		t.Fatal(err)
	}
	if err := reconcile(ok, 0, 9); err == nil {
		t.Fatal("a request lost between dispatcher and shards passed")
	}
	bad := []metrics.PoolStats{{Submitted: 5, Completed: 3, Failed: 1}}
	if err := reconcile(bad, 0, 5); err == nil {
		t.Fatal("a shard with an unfinished request passed")
	}
}

// The traced run must hand the scheduler the same surface it would get
// untraced; a wrapper that drops BatchBackend must be refused.
func TestWrapKeepsSchedulerSurface(t *testing.T) {
	tr := newTracer()
	pool, fb, err := workers(stackAnneal, "s0/")
	if err != nil {
		t.Fatal(err)
	}
	wpool, wfb, err := tr.wrapWorkers(pool, fb)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := wpool[0].(backend.BatchBackend); !ok {
		t.Fatal("traced annealer is not a BatchBackend")
	}
	if _, ok := wpool[0].(channelCacheStatser); !ok {
		t.Fatal("traced annealer lost ChannelCacheStats")
	}
	if wpool[0].Describe() != pool[0].Describe() || wfb.Describe() != fb.Describe() {
		t.Fatal("traced backends describe different capabilities")
	}
	plain := &tracedBackend{inner: pool[0], class: "qpu", t: tr}
	if err := sameSurface(pool[0], plain); err == nil {
		t.Fatal("a wrapper without BatchBackend passed")
	}
}

func TestYKeyFollowsPrecodeTarget(t *testing.T) {
	r := genOne(t, genCold, kindRawPrecode)
	if yKey(r.y) != yKey(r.prog.Problem(r.s).Y) {
		t.Fatal("client and server see different precode targets")
	}
}
