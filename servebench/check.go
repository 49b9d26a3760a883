package main

import (
	"fmt"
	"math"

	"quamax/internal/linalg"
	"quamax/internal/metrics"
)

// energyTol is the relative agreement a reported energy must reach with the
// benchmark's own recomputation. Both sides evaluate the same norm in float64,
// so anything looser than rounding is a wrong answer.
const energyTol = 1e-6

func closeEnough(got, want float64) bool {
	return math.Abs(got-want) <= energyTol*math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
}

// check verifies one successful reply against its request.
func check(r *request, rep *reply) error {
	if r.kind == kindRawPrecode {
		return checkPrecode(r, rep)
	}
	if err := checkDecode(r, rep); err != nil {
		return err
	}
	if r.kind.soft() {
		return checkLLRs(rep.bits, rep.llr8)
	}
	return nil
}

// checkDecode recomputes ‖y − H·x̂‖² from the returned bits and requires the
// reported energy to match; noise-free requests must return the sent bits.
func checkDecode(r *request, rep *reply) error {
	if len(rep.bits) != len(r.bits) {
		return fmt.Errorf("got %d bits, want %d", len(rep.bits), len(r.bits))
	}
	for _, b := range rep.bits {
		if b > 1 {
			return fmt.Errorf("bit value %d", b)
		}
	}
	x := r.mod.MapGrayVector(rep.bits)
	e := linalg.Norm2(linalg.VecSub(r.y, linalg.MulVec(r.h, x)))
	if !closeEnough(rep.energy, e) {
		return fmt.Errorf("reported energy %.9g, recomputed ‖y−Hx̂‖² %.9g", rep.energy, e)
	}
	if r.exact {
		if n := bitErrors(r.bits, rep.bits); n != 0 {
			return fmt.Errorf("noise-free decode has %d bit errors", n)
		}
	}
	return nil
}

// checkLLRs requires one LLR per bit, each agreeing in sign with its hard
// bit (positive favours 1; a zero LLR is a tie and agrees with either).
func checkLLRs(bits []byte, llr8 []int8) error {
	if len(llr8) != len(bits) {
		return fmt.Errorf("got %d LLRs for %d bits", len(llr8), len(bits))
	}
	for i, l := range llr8 {
		if (bits[i] == 1 && l < 0) || (bits[i] == 0 && l > 0) {
			return fmt.Errorf("LLR %d is %d but the hard bit is %d", i, l, bits[i])
		}
	}
	return nil
}

// checkPrecode recomputes γ = ‖P(s+τv)‖² from the returned perturbation
// through the client's own compile of the VP program.
func checkPrecode(r *request, rep *reply) error {
	if len(rep.v) != len(r.s) {
		return fmt.Errorf("got %d perturbation entries, want %d", len(rep.v), len(r.s))
	}
	g := r.prog.Gamma(r.s, rep.v)
	if !closeEnough(rep.energy, g) {
		return fmt.Errorf("reported γ %.9g, recomputed ‖P(s+τv)‖² %.9g", rep.energy, g)
	}
	return nil
}

func bitErrors(want, got []byte) int {
	n := 0
	for i := range want {
		if i >= len(got) || want[i] != got[i] {
			n++
		}
	}
	return n
}

// reconcile checks every shard's counters: each request a scheduler took in
// either completed or failed, and together they took in exactly the requests
// that reached the dispatcher, less the router's sheds.
func reconcile(per []metrics.PoolStats, sheds uint64, reached int) error {
	var submitted uint64
	for i, st := range per {
		if st.Submitted != st.Completed+st.Failed {
			return fmt.Errorf("shard %d: submitted %d != completed %d + failed %d",
				i, st.Submitted, st.Completed, st.Failed)
		}
		submitted += st.Submitted
	}
	if submitted+sheds != uint64(reached) {
		return fmt.Errorf("shards took in %d requests and shed %d, but %d reached the dispatcher",
			submitted, sheds, reached)
	}
	return nil
}
