package main

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"

	"quamax"
	"quamax/internal/anneal"
	"quamax/internal/backend"
	"quamax/internal/fronthaul"
	"quamax/internal/metrics"
	"quamax/internal/qos"
	"quamax/internal/router"
	"quamax/internal/sched"
)

const shards = 2

// stack is the serving tier assembled in-process the way cmd/quamax-serve
// assembles it: per-shard schedulers behind the router, served by the
// fronthaul pool server on loopback TCP, plus the AP's client connections.
type stack struct {
	schedulers []*sched.Scheduler
	router     *router.Router
	ln         net.Listener
	served     chan error
	clients    []*fronthaul.Client
	// wire counts the bytes the clients moved both ways (traced runs only).
	wire atomic.Int64
}

// serveOptions are quamax-serve's decoder defaults (-anneals 100 -jf 4 -ta 1
// -tp 1 -sp 0.35 -improved-range -amortize, default channel cache).
func serveOptions() quamax.Options {
	return quamax.Options{
		JF:            4,
		ImprovedRange: true,
		Params: anneal.Params{
			AnnealTimeMicros: 1,
			PauseTimeMicros:  1,
			PausePosition:    0.35,
			NumAnneals:       100,
		},
		AmortizeParallel: true,
	}
}

// workers builds one shard's solver set. For stackAnneal the pool is one
// simulated DW2Q annealer and simulated annealing on the CPU is the deadline
// and planner fallback. stackSphere pools two exact sphere decoders, the
// first doubling as the fallback.
func workers(kind stackKind, prefix string) ([]backend.Backend, backend.Backend, error) {
	switch kind {
	case stackAnneal:
		qpu, err := backend.NewAnnealer(prefix+"qpu0", serveOptions())
		if err != nil {
			return nil, nil, err
		}
		sa := backend.NewClassicalSA(prefix+"sa", 128, 100)
		return []backend.Backend{qpu}, sa, nil
	case stackSphere:
		a := backend.NewSphere(prefix+"sphere0", 1<<20)
		b := backend.NewSphere(prefix+"sphere1", 1<<20)
		return []backend.Backend{a, b}, a, nil
	}
	return nil, nil, fmt.Errorf("unknown stack kind %d", kind)
}

// buildStack assembles the stack for w. With tr set, every layer boundary is
// wrapped so the tracer sees each call; the program itself is unchanged.
func buildStack(w *workload, seed int64, tr *tracer) (*stack, error) {
	planner, err := qos.NewPlanner(nil)
	if err != nil {
		return nil, err
	}
	st := &stack{}
	var shardList []router.Shard
	for i := 0; i < shards; i++ {
		pool, fallback, err := workers(w.stack, fmt.Sprintf("s%d/", i))
		if err != nil {
			st.close()
			return nil, err
		}
		if tr != nil {
			if pool, fallback, err = tr.wrapWorkers(pool, fallback); err != nil {
				st.close()
				return nil, err
			}
		}
		s, err := sched.New(sched.Config{
			Pool:     pool,
			Fallback: fallback,
			Planner:  planner,
			Seed:     seed + int64(i),
			ShardID:  i,
		})
		if err != nil {
			st.close()
			return nil, err
		}
		st.schedulers = append(st.schedulers, s)
		var sh router.Shard = s
		if tr != nil {
			sh = tr.wrapShard(i, s)
		}
		shardList = append(shardList, sh)
	}
	rt, err := router.New(router.Config{Shards: shardList, Seed: seed})
	if err != nil {
		st.close()
		return nil, err
	}
	st.router = rt
	var disp fronthaul.Dispatcher = rt
	if tr != nil {
		disp = tr.wrapDispatcher(rt)
	}
	srv := fronthaul.NewPoolServer(disp)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.ln = ln
	st.served = make(chan error, 1)
	go func() { st.served <- srv.Serve(ln) }()
	for i := 0; i < conns; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			st.close()
			return nil, err
		}
		if tr != nil {
			c = &countingConn{Conn: c, n: &st.wire}
		}
		st.clients = append(st.clients, fronthaul.NewClient(c))
	}
	return st, nil
}

// shardStats snapshots every shard's pool counters and router sheds.
func (st *stack) shardStats() ([]metrics.PoolStats, uint64) {
	var sheds uint64
	for i := range st.schedulers {
		sheds += st.router.ShedCount(i)
	}
	return st.router.ShardStats(), sheds
}

// close tears the stack down in dependency order: clients, listener (and the
// Serve loop), then the schedulers, which drain their queued work.
func (st *stack) close() error {
	var errs []error
	for _, c := range st.clients {
		if err := c.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			errs = append(errs, err)
		}
	}
	if st.ln != nil {
		st.ln.Close()
		<-st.served
	}
	for _, s := range st.schedulers {
		s.Close()
	}
	return errors.Join(errs...)
}

// countingConn counts the bytes one fronthaul connection moves.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.n.Add(int64(n))
	return n, err
}
