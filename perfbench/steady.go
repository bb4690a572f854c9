package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"symbol"
	"symbol/internal/benchprog"
	"symbol/internal/emu"
	"symbol/internal/ic"
)

// steadyPrograms are the long-running corpus programs the steady workload
// draws from.
var steadyPrograms = []string{"tak", "poly", "fib", "hanoi", "boyer", "queens_8", "sendmore", "zebra"}

// steadyRun is one run answered correctly in the measured phase.
type steadyRun struct {
	prog   int
	steps  int64
	lat    float64 // ms
	traced bool
}

// runSteady drives warm engines in a closed loop: nproc workers each draw
// a program by seed, run it on its engine and check the answer, until the
// measured phase ends.
func runSteady(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	ins := make([]*input, len(steadyPrograms))
	for i, name := range steadyPrograms {
		b, err := benchprog.Get(name)
		if err != nil {
			return nil, err
		}
		ins[i] = &input{name: b.Name, src: b.Source, expect: b.Expect}
	}
	times := newColdTimes(len(ins))
	nw := runtime.NumCPU()
	var engines []*symbol.Engine
	setups, err := setUp(func() { engines = nil }, func() (err error) {
		if engines, err = coldStart(ctx, ins, o, times); err != nil {
			return err
		}
		return fillPools(ctx, engines, nw)
	})
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	// The traced path keeps machine states the way an Engine does: one
	// sync.Pool per program, filled like the engines' pools, so the
	// collector drops them alike.
	pools := make([]sync.Pool, len(ins))
	if e.trace {
		for i := range pools {
			for range nw {
				pools[i].Put(ic.NewState())
			}
		}
	}
	pool0 := make([]symbol.MetricsSnapshot, len(engines))
	for i, eng := range engines {
		pool0[i] = eng.Metrics()
	}
	workers := make([][]steadyRun, nw)
	var reqMu sync.Mutex
	reqProg := map[int64]int{}
	var nextReq int64
	gc0 := readGC()
	o.begin()
	deadline := o.start.Add(e.duration())
	var wg sync.WaitGroup
	for w := range workers {
		rng := newRand(e.seed, 100+uint64(w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := 0; time.Now().Before(deadline); op++ {
				i := rng.IntN(len(ins))
				in := ins[i]
				o.attempt()
				opStart := time.Now()
				var out string
				var steps int64
				var err error
				useTrace := e.trace && op%2 == 1
				if useTrace {
					reqMu.Lock()
					nextReq++
					req := nextReq
					reqProg[req] = i
					reqMu.Unlock()
					out, steps, err = steadyTraced(tr, req, engines[i].Program().IC(), &pools[i])
				} else {
					var r *symbol.Result
					if r, err = engines[i].Run(ctx, symbol.RunOptions{}); err == nil {
						out, steps = r.Output, r.Steps
					}
				}
				d := time.Since(opStart)
				if err != nil {
					o.wrong("%s: %v", in.name, err)
					continue
				}
				if out != in.expect {
					o.wrong("%s: output %q, want %q", in.name, out, in.expect)
					continue
				}
				o.ok(d)
				workers[w] = append(workers[w], steadyRun{i, steps, ms(d), useTrace})
			}
		}()
	}
	wg.Wait()
	wall := time.Since(o.start)
	gc1 := readGC()

	m := o.m
	o.setCommon(wall, int(wall/window))
	m.set("setup_s", median(setups), "s", len(setups))
	setColdStart(m, times)
	// steady's two speed metrics come from each program's fastest
	// untraced run. A run is deterministic (its steps repeat exactly), so
	// anything that makes it slower than its fastest is interference: on
	// the shared machine whole spells of tens of seconds run the
	// interpreter up to twice as slow, and a median (per run, per window or
	// per program) moved with them by 0.2–0.3 of itself between runs. p50_ms
	// is the geometric mean over programs of each program's fastest run
	// (the programs' latencies form eight clusters, from 0.4 ms to 200 ms);
	// steps_per_s is the steps per second all workers would complete at
	// those speeds: workers × the geometric mean over programs of steps ÷
	// fastest run.
	pub := make([][]float64, len(ins)) // [program] ms
	trd := make([][]float64, len(ins))
	progSteps := make([]int64, len(ins))
	for _, runs := range workers {
		for _, r := range runs {
			progSteps[r.prog] = r.steps
			if r.traced {
				trd[r.prog] = append(trd[r.prog], r.lat)
			} else {
				pub[r.prog] = append(pub[r.prog], r.lat)
			}
		}
	}
	var best, rates []float64
	for i, xs := range pub {
		if len(xs) > 0 {
			b := quantile(xs, 0)
			best = append(best, b)
			rates = append(rates, float64(progSteps[i])/(b/1e3))
		}
	}
	m.set("steps_per_s", float64(nw)*geomean(rates), "1/s", len(o.ops))
	m.set("p50_ms", geomean(best), "ms", len(o.ops))
	if !e.trace {
		return o, nil
	}

	// Traced run. Overhead: per program, traced over untraced median run
	// time, then the geometric mean over programs.
	var ratios []float64
	for i := range ins {
		if len(pub[i]) > 0 && len(trd[i]) > 0 {
			ratios = append(ratios, median(trd[i])/median(pub[i]))
		}
	}
	if len(ratios) > 0 {
		m.set("trace.overhead_pct", pctChange(geomean(ratios), 1), "%", len(ratios))
	}
	a := tr.analyze()
	for _, l := range []struct{ span, metric string }{
		{"ic.state_new", "ic.state_new_ms"}, {"emu.run", "emu.run_ms"}, {"ic.reset", "ic.reset_ms"},
	} {
		v, n := a.groupMS(l.span, func(req int64) int { return reqProg[req] })
		m.set(l.metric, v, "ms", n)
	}
	u, n := a.unattributedMS()
	m.set("unattributed_ms", u, "ms", n)

	// Work counts: one run of each program, summed (they repeat exactly).
	var runSteps float64
	var runTime time.Duration
	var runs int
	var cnt steadyCounts
	for i, in := range ins {
		c, err := countRun(engines[i].Program().IC())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		cnt.add(c)
		for j, s := range a.spans {
			if s.Name == "emu.run" && s.End >= 0 && reqProg[s.Req] == i {
				runSteps += float64(c.steps)
				runTime += a.self[j]
				runs++
			}
		}
	}
	m.set("emu.steps", float64(cnt.steps), "count", len(ins))
	m.set("emu.mem_ops", float64(cnt.memOps), "count", len(ins))
	m.set("emu.cp_pushes", float64(cnt.cpPushes), "count", len(ins))
	m.set("ic.dirty_pages", float64(cnt.dirty), "count", len(ins))
	m.set("emu.steps_per_s", runSteps/max(runTime.Seconds(), 1e-9), "1/s", runs)

	var gets, misses int64
	for i, eng := range engines {
		s := eng.Metrics()
		gets += s.PoolGets - pool0[i].PoolGets
		misses += s.PoolMisses - pool0[i].PoolMisses
	}
	m.set("engine.pool_hit_ratio", 1-float64(misses)/float64(max(gets, 1)), "ratio", int(gets))
	setEngineGC(m, gc0, gc1, len(o.ops))
	return o, tr.save(e, "steady")
}

// fillPools leaves n machine states in each engine's pool (one per
// worker), so that the measured phase starts with every state it needs
// allocated. Each open query stream holds one state; closing them all
// returns the states to the pool.
func fillPools(ctx context.Context, engines []*symbol.Engine, n int) error {
	for _, eng := range engines {
		streams := make([]*symbol.Solutions, 0, n)
		for range n {
			s, err := eng.Query(ctx, symbol.RunOptions{})
			if err != nil {
				return err
			}
			streams = append(streams, s)
		}
		for _, s := range streams {
			s.Close()
		}
	}
	return nil
}

// steadyTraced is Engine.Run's core, one layer call at a time: take a
// machine state from the pool (allocating one on a miss), execute, reset
// and return the state.
func steadyTraced(tr *tracer, req int64, prog *ic.Program, pool *sync.Pool) (string, int64, error) {
	root := tr.begin("steady_op", -1, req)
	defer tr.end(root)
	st, _ := pool.Get().(*ic.State)
	if st == nil {
		tr.do("ic.state_new", root, req, func() { st = ic.NewState() })
	}
	defer pool.Put(st)
	var res *emu.Result
	var err error
	tr.do("emu.run", root, req, func() { res, err = emu.Run(prog, emu.Options{State: st}) })
	tr.do("ic.reset", root, req, st.Reset)
	if err != nil {
		return "", 0, err
	}
	if res.Status != 0 {
		return "", 0, fmt.Errorf("no solution")
	}
	return res.Output, res.Steps, nil
}

type steadyCounts struct{ steps, memOps, cpPushes, dirty int64 }

func (c *steadyCounts) add(o steadyCounts) {
	c.steps += o.steps
	c.memOps += o.memOps
	c.cpPushes += o.cpPushes
	c.dirty += o.dirty
}

// countRun runs prog once, outside the measured phase, for its exact work
// counts.
func countRun(prog *ic.Program) (steadyCounts, error) {
	st := ic.NewState()
	res, err := emu.Run(prog, emu.Options{State: st})
	if err != nil {
		return steadyCounts{}, err
	}
	return steadyCounts{res.Steps, res.Stats.MemOps, res.Stats.ChoicePoints, int64(st.DirtyPages())}, nil
}
