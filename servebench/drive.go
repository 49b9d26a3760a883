package main

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"quamax/internal/fronthaul"
)

// Failure causes, one per way a request can fail to return a decision.
const (
	causeShed    = "shed"             // the router refused the request
	causeHandle  = "evicted-handle"   // the server no longer knew the handle
	causeDead    = "deadline"         // the stack gave up on the deadline
	causeRemote  = "remote-other"     // any other error the server returned
	causeTranspt = "transport"        // the connection failed
	causeCheck   = "incorrect-output" // the response failed its output check
)

// classify names the cause of a failed request from its error.
func classify(err error) string {
	msg := err.Error()
	switch {
	case strings.Contains(msg, "shedding load"):
		return causeShed
	case strings.Contains(msg, "unknown channel handle"):
		return causeHandle
	case strings.Contains(msg, "deadline"):
		return causeDead
	case strings.Contains(msg, "remote"):
		return causeRemote
	}
	return causeTranspt
}

// reply is what one request got back, in the form the checks need.
type reply struct {
	bits     []byte
	v        []complex128 // precode perturbation
	energy   float64
	llr8     []int8
	sat      int
	compute  float64
	backend  string
	batched  int
	received time.Time
}

// tally accumulates one measured phase's outcomes. Every per-request slice
// is sized before the phase starts, so the tally never grows while the heap
// is measured.
type tally struct {
	mu        sync.Mutex
	attempted int
	succeeded int
	causes    map[string]int
	// lat is each arrival's latency in ms, NaN until it succeeds.
	lat []float64
	// late is how many µs behind schedule the generator sent each arrival.
	late []float64
	// reached counts requests that got to the dispatcher: every response
	// except a refused handle (the server answers those before dispatch).
	reached  int
	bitErr   int
	bitTotal int
	gamma    float64
	precodes int
	qpuMicro float64
	batched  int
	llrSat   int
	llrTotal int
	lastAt   time.Time // latest recorded reply
	checkErr error
}

// newTally returns the tally of a phase of n arrivals.
func newTally(n int) *tally {
	t := &tally{
		causes: make(map[string]int),
		lat:    make([]float64, n),
		late:   make([]float64, n),
	}
	for i := range t.lat {
		t.lat[i] = math.NaN()
	}
	return t
}

func (t *tally) fail(cause string) {
	t.mu.Lock()
	t.causes[cause]++
	if cause != causeHandle && cause != causeTranspt {
		t.reached++
	}
	t.mu.Unlock()
}

func (t *tally) failed() int {
	n := 0
	for _, c := range t.causes {
		n += c
	}
	return n
}

// record checks the response to arrival i and folds it in. start is the
// arrival's scheduled send time.
func (t *tally) record(i int, r *request, start time.Time, rep *reply) {
	err := check(r, rep)
	lat := rep.received.Sub(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reached++
	if rep.received.After(t.lastAt) {
		t.lastAt = rep.received
	}
	if err != nil {
		t.causes[causeCheck]++
		if t.checkErr == nil {
			t.checkErr = fmt.Errorf("%s request: %w", r.kind, err)
		}
		return
	}
	t.succeeded++
	t.lat[i] = float64(lat) / float64(time.Millisecond)
	if r.bits != nil {
		t.bitErr += bitErrors(r.bits, rep.bits)
		t.bitTotal += len(r.bits)
	}
	if r.kind == kindRawPrecode {
		t.gamma += rep.energy
		t.precodes++
	}
	if strings.Contains(rep.backend, "qpu") {
		t.qpuMicro += rep.compute
	}
	t.batched += rep.batched
	if r.kind.soft() {
		t.llrSat += rep.sat
		t.llrTotal += len(rep.llr8)
	}
}

// conn is one AP connection with its registered coherence windows.
type conn struct {
	c    *fronthaul.Client
	regs map[int]*registration // window id → handle; generator goroutine only
}

type registration struct {
	rc *fronthaul.RemoteChannel
	// stale is set when the server refused the handle: the AP registers the
	// window again before its next request.
	stale atomic.Bool
}

// driver runs one phase of a workload against a stack.
type driver struct {
	w     *workload
	tr    *tracer // nil when untraced
	t     *tally
	conns []*conn
	wg    sync.WaitGroup
}

func newDriver(w *workload, st *stack, tr *tracer, t *tally) *driver {
	d := &driver{w: w, tr: tr, t: t}
	for _, c := range st.clients {
		d.conns = append(d.conns, &conn{c: c, regs: make(map[int]*registration)})
	}
	return d
}

// send puts r on the wire and returns the wait that yields its reply. The
// pipelined calls return with the frame already sent; the two raw kinds the
// client offers only as blocking calls are sent when wait runs.
func (d *driver) send(r *request, key uint64) (func() (*reply, error), *registration, error) {
	cn := d.conns[r.conn]
	c := cn.c
	var reg *registration
	if r.kind.keyed() {
		reg = cn.regs[r.win.id]
		if reg == nil || reg.stale.Load() {
			rc, err := c.RegisterChannel(r.mod, r.win.h)
			if err != nil {
				return nil, nil, err
			}
			reg = &registration{rc: rc}
			cn.regs[r.win.id] = reg
		}
	}
	q := fronthaul.SoftQoS{NoiseVar: r.noiseVar, Deadline: d.w.deadline, TargetBER: d.w.targetBER}
	// The client span starts once the frame is about to be sent, after any
	// registration round trip.
	begin := func() {
		if d.tr != nil {
			d.tr.clientStart(key, r.kind)
		}
	}
	switch r.kind {
	case kindDecode:
		begin()
		call, err := c.SubmitDecodeWithChannel(reg.rc, r.y, d.w.deadline, d.w.targetBER)
		if err != nil {
			return nil, reg, err
		}
		return func() (*reply, error) { return hardReply(call.Await()) }, reg, nil
	case kindSoft:
		begin()
		call, err := c.SubmitDecodeSoftWithChannel(reg.rc, r.y, q)
		if err != nil {
			return nil, reg, err
		}
		return func() (*reply, error) { return softReply(call.Await()) }, reg, nil
	case kindRawDecode:
		begin()
		call, err := c.SubmitDecodeQoS(r.mod, r.h, r.y, d.w.deadline, d.w.targetBER)
		if err != nil {
			return nil, nil, err
		}
		return func() (*reply, error) { return hardReply(call.Await()) }, nil, nil
	case kindRawSoft:
		return func() (*reply, error) {
			begin()
			return softReply(c.DecodeSoft(r.mod, r.h, r.y, q))
		}, nil, nil
	case kindRawPrecode:
		return func() (*reply, error) {
			begin()
			resp, err := c.Precode(r.mod, r.h, r.s, 0, d.w.deadline, d.w.targetBER)
			if err != nil {
				return nil, err
			}
			return &reply{
				v: resp.V, energy: resp.Energy, compute: resp.ComputeMicros,
				backend: resp.Backend, batched: resp.Batched, received: time.Now(),
			}, nil
		}, nil, nil
	}
	return nil, nil, fmt.Errorf("unknown request kind %d", r.kind)
}

// finish records the outcome of r. A refused handle marks the registration
// stale so the AP registers the window again before its next request; the
// failed request itself is never retried.
func (d *driver) finish(i int, r *request, start time.Time, reg *registration, key uint64, rep *reply, err error) {
	if d.tr != nil {
		d.tr.clientEnd(key)
	}
	if err != nil {
		cause := classify(err)
		if cause == causeHandle && reg != nil {
			reg.stale.Store(true)
		}
		d.t.fail(cause)
		return
	}
	d.t.record(i, r, start, rep)
}

// issue sends r as arrival i and records its reply. With async set the
// reply is awaited on its own goroutine, so an open-loop generator never
// waits for one; done, if set, runs once the reply is recorded.
func (d *driver) issue(i int, r *request, start time.Time, async bool, done func()) {
	d.t.mu.Lock()
	d.t.attempted++
	d.t.mu.Unlock()
	var key uint64
	if d.tr != nil {
		key = yKey(r.y)
	}
	complete := func(rep *reply, reg *registration, err error) {
		d.finish(i, r, start, reg, key, rep, err)
		if done != nil {
			done()
		}
	}
	wait, reg, err := d.send(r, key)
	if err != nil {
		complete(nil, reg, err)
		return
	}
	if !async {
		rep, err := wait()
		complete(rep, reg, err)
		return
	}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		rep, err := wait()
		complete(rep, reg, err)
	}()
}

func hardReply(resp *fronthaul.DecodeResponse, err error) (*reply, error) {
	if err != nil {
		return nil, err
	}
	return &reply{
		bits: resp.Bits, energy: resp.Energy, compute: resp.ComputeMicros,
		backend: resp.Backend, batched: resp.Batched, received: time.Now(),
	}, nil
}

func softReply(resp *fronthaul.SoftDecodeResponse, err error) (*reply, error) {
	if err != nil {
		return nil, err
	}
	return &reply{
		bits: resp.Bits, energy: resp.Energy, llr8: resp.LLR8, sat: resp.Saturated,
		compute: resp.ComputeMicros, backend: resp.Backend, batched: resp.Batched,
		received: time.Now(),
	}, nil
}

// runOpen sends each arrival on its schedule, one generator per connection
// (byConn lists each connection's arrivals, sleepers holds its timer), and
// waits for every reply. It returns the time from the first scheduled send
// to the last reply, and any error a generator's timer gave.
func (d *driver) runOpen(arrs []arrival, byConn [][]int, sleepers []*sleeper) (time.Duration, error) {
	genErr := make([]error, len(byConn))
	start := time.Now()
	var gens sync.WaitGroup
	for c, idx := range byConn {
		gens.Add(1)
		go func(c int, idx []int) {
			defer gens.Done()
			// sem bounds the connection's requests in flight.
			sem := make(chan struct{}, d.w.window)
			release := func() { <-sem }
			for _, i := range idx {
				due := start.Add(arrs[i].due)
				if err := sleepers[c].until(due); err != nil {
					genErr[c] = err
					return
				}
				sem <- struct{}{}
				d.t.late[i] = float64(time.Since(due)) / float64(time.Microsecond)
				d.issue(i, arrs[i].req, due, true, release)
			}
		}(c, idx)
	}
	gens.Wait()
	d.wg.Wait()
	return d.t.since(start), errors.Join(genErr...)
}

// since is the time from start to the last recorded reply (or to now, if
// nothing was recorded).
func (t *tally) since(start time.Time) time.Duration {
	if t.lastAt.After(start) {
		return t.lastAt.Sub(start)
	}
	return time.Since(start)
}
