package main

import (
	"context"
	"fmt"
	"time"

	"symbol"
	"symbol/internal/bam"
	"symbol/internal/benchprog"
	"symbol/internal/compile"
	"symbol/internal/core"
	"symbol/internal/emu"
	"symbol/internal/exec"
	"symbol/internal/expand"
	"symbol/internal/ic"
	"symbol/internal/machine"
	"symbol/internal/parse"
	"symbol/internal/rename"
	"symbol/internal/snapshot"
	"symbol/internal/vliw"
)

// oneshot runs every input through three finish lines, each on a fresh
// Program with nothing pooled: source → first answer, snapshot bytes →
// first answer, and source → simulated result on the 3-unit machine.

type input struct {
	name   string
	src    string
	expect string
	snap   []byte
}

// The paths a finish line is run on: the public API, and each layer's
// exported function called in turn, untraced or with a span around each.
const (
	pathPublic = iota
	pathLayers
	pathTraced
)

// finish-line names: the end-to-end metric and the traced root span.
var finishLines = []string{"source_answer", "snapshot_answer", "schedule_sim"}

// exactCounts are the per-input counts that must repeat exactly between
// runs of one build.
type exactCounts struct {
	EmuSteps   int64   `json:"emu.steps"`
	VliwCycles int64   `json:"vliw.cycles"`
	Speedup    float64 `json:"vliw.speedup"`
	RenameICIs int     `json:"rename.icis"`
	FusedOps   int     `json:"exec.fused_ops"`
}

// layerCounts are the work counts of one traced finish line of an input.
type layerCounts struct {
	clauses, bamInsts, expandICIs, renameICIs, fusedOps int
	snapBytes                                           int
	dirtyPages                                          int
	steps, memOps, cpPushes                             int64
	words, ops                                          int
	avgTraceLen                                         float64
	cycles                                              int64
	speedup                                             float64
}

// oneshotSetup builds the inputs: the corpus in seeded order, then the
// synthetic knowledge base, each with its snapshot bytes.
func oneshotSetup(ctx context.Context, seed uint64) ([]*input, error) {
	rng := newRand(seed, 1)
	var ins []*input
	for _, b := range benchprog.All() {
		ins = append(ins, &input{name: b.Name, src: b.Source, expect: b.Expect})
	}
	rng.Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
	kb := genKB(rng)
	ins = append(ins, &input{name: fmt.Sprintf("synthkb-%d", seed), src: kb.src, expect: kb.expect})
	for _, in := range ins {
		p, err := symbol.Load(ctx, []byte(in.src))
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", in.name, err)
		}
		in.snap = p.Snapshot()
	}
	return ins, nil
}

// sample is one finish-line execution.
type sample struct {
	out    string
	counts exactCounts
	// engine pool activity of the public path (zero for traced samples).
	poolGets, poolMisses int64
}

// runPublic runs one finish line through the public API, untraced. The
// timed part ends when the answer is in hand; the counts for the exact
// cross-check are read afterwards. For the answer lines it also returns
// the engine it answered on, whose pool now holds a warm machine state.
func runPublic(ctx context.Context, line string, in *input) (sample, time.Duration, *symbol.Engine, error) {
	var s sample
	start := time.Now()
	switch line {
	case "source_answer", "snapshot_answer":
		data := []byte(in.src)
		if line == "snapshot_answer" {
			data = in.snap
		}
		p, err := symbol.Load(ctx, data)
		if err != nil {
			return s, 0, nil, err
		}
		e := symbol.NewEngine(p) // what Program.RunContext does
		r, err := e.RunContext(ctx)
		if err != nil {
			return s, 0, nil, err
		}
		d := time.Since(start)
		if !r.Succeeded {
			return s, d, nil, fmt.Errorf("%s: no solution", in.name)
		}
		m := e.Metrics()
		s.out, s.poolGets, s.poolMisses = r.Output, m.PoolGets, m.PoolMisses
		s.counts = exactCounts{EmuSteps: r.Steps, RenameICIs: p.CodeSize(), FusedOps: exec.Of(p.IC()).Stats.FusedOps}
		return s, d, e, nil
	default:
		p, err := symbol.Load(ctx, []byte(in.src))
		if err != nil {
			return s, 0, nil, err
		}
		sched, err := p.ScheduleWith(symbol.DefaultMachine(3))
		if err != nil {
			return s, 0, nil, err
		}
		sr, err := sched.Simulate()
		if err != nil {
			return s, 0, nil, err
		}
		d := time.Since(start)
		if !sr.Succeeded {
			return s, d, nil, fmt.Errorf("%s: no solution", in.name)
		}
		seq, err := p.SeqCycles()
		if err != nil {
			return s, d, nil, err
		}
		s.out = sr.Output
		s.counts = exactCounts{VliwCycles: sr.Cycles, Speedup: symbol.Speedup(seq, sr.Cycles)}
		return s, d, nil, nil
	}
}

// compileLayers is the source half of symbol.Load, one layer call at a
// time: parse, compile to BAM, expand to ICI, rename.
func compileLayers(tr *tracer, parent int32, req int64, src string, lc *layerCounts) (*ic.Program, error) {
	id := tr.begin("parse", parent, req)
	clauses, err := parse.All(src)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("compile", parent, req)
	c := compile.New(compile.Options{ArithChecks: symbol.DefaultOptions().ArithChecks})
	err = c.AddProgram(clauses)
	var unit *bam.Unit
	if err == nil {
		unit, err = c.Compile()
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("expand", parent, req)
	prog, err := expand.Translate(unit, c.Atoms())
	tr.end(id)
	if err != nil {
		return nil, err
	}
	lc.clauses, lc.bamInsts, lc.expandICIs = len(clauses), len(unit.Code), len(prog.Code)
	id = tr.begin("rename", parent, req)
	prog = rename.Fold(prog)
	tr.end(id)
	lc.renameICIs = len(prog.Code)
	return prog, nil
}

// runOnState is Engine.Run's core on an explicitly allocated state: new
// machine image, execute, reset (an engine resets before returning the
// state to its pool, inside the caller's finish line).
func runOnState(tr *tracer, parent int32, req int64, prog *ic.Program, lc *layerCounts) (*emu.Result, error) {
	var st *ic.State
	tr.do("ic.state_new", parent, req, func() { st = ic.NewState() })
	var res *emu.Result
	var err error
	tr.do("emu.run", parent, req, func() { res, err = emu.Run(prog, emu.Options{State: st}) })
	if err != nil {
		return nil, err
	}
	lc.dirtyPages = st.DirtyPages()
	tr.do("ic.reset", parent, req, st.Reset)
	return res, nil
}

// runTraced runs one finish line by calling each layer's exported function
// in the order the public API does, with a span around every call.
func runTraced(tr *tracer, req int64, line string, in *input) (sample, layerCounts, time.Duration, error) {
	var s sample
	var lc layerCounts
	start := time.Now()
	root := tr.begin(line, -1, req)
	switch line {
	case "source_answer", "snapshot_answer":
		var prog *ic.Program
		if line == "source_answer" {
			var err error
			if prog, err = compileLayers(tr, root, req, in.src, &lc); err != nil {
				return s, lc, 0, err
			}
			tr.do("exec.predecode", root, req, func() { lc.fusedOps = exec.Of(prog).Stats.FusedOps })
		} else {
			var img *snapshot.Image
			var err error
			tr.do("snapshot.decode", root, req, func() {
				img, err = snapshot.Decode(in.snap)
				if err == nil && img.Exec != nil {
					img.Prog.ExecCache(func() any { return img.Exec })
				}
			})
			if err != nil {
				return s, lc, 0, err
			}
			prog, lc.snapBytes = img.Prog, len(in.snap)
		}
		res, err := runOnState(tr, root, req, prog, &lc)
		if err != nil {
			return s, lc, 0, err
		}
		tr.end(root)
		d := time.Since(start)
		if res.Status != 0 {
			return s, lc, d, fmt.Errorf("%s: no solution", in.name)
		}
		s.out = res.Output
		lc.steps, lc.memOps, lc.cpPushes = res.Steps, res.Stats.MemOps, res.Stats.ChoicePoints
		s.counts = exactCounts{EmuSteps: res.Steps, RenameICIs: len(prog.Code), FusedOps: exec.Of(prog).Stats.FusedOps}
		return s, lc, d, nil
	default:
		prog, err := compileLayers(tr, root, req, in.src, &lc)
		if err != nil {
			return s, lc, 0, err
		}
		tr.do("exec.predecode", root, req, func() { exec.Of(prog) })
		var st *ic.State
		tr.do("ic.state_new", root, req, func() { st = ic.NewState() })
		var pres *emu.Result
		tr.do("core.profile", root, req, func() {
			pres, err = emu.Run(prog, emu.Options{Profile: true, State: st})
		})
		if err != nil {
			return s, lc, 0, err
		}
		var vp *vliw.Program
		var cs *core.Stats
		tr.do("core.schedule", root, req, func() {
			vp, cs, err = core.Compact(prog, pres.Profile, machine.Default(3), core.DefaultOptions())
		})
		if err != nil {
			return s, lc, 0, err
		}
		var st2 *ic.State
		tr.do("ic.state_new", root, req, func() { st2 = ic.NewState() })
		var sr *vliw.SimResult
		tr.do("vliw.sim", root, req, func() { sr, err = vliw.Sim(vp, vliw.SimOptions{State: st2}) })
		if err != nil {
			return s, lc, 0, err
		}
		tr.end(root)
		d := time.Since(start)
		if sr.Status != 0 {
			return s, lc, d, fmt.Errorf("%s: no solution", in.name)
		}
		s.out = sr.Output
		seq := seqCycles(prog, pres.Profile)
		lc.words, lc.ops, lc.avgTraceLen = len(vp.Words), vp.OpCount(), cs.AvgTraceLen
		lc.cycles, lc.speedup = sr.Cycles, symbol.Speedup(seq, sr.Cycles)
		s.counts = exactCounts{VliwCycles: sr.Cycles, Speedup: lc.speedup}
		return s, lc, d, nil
	}
}

// seqCycles is the paper's sequential-machine cycle count from a profile:
// memory and control operations cost two cycles, the rest one (§4.3).
func seqCycles(prog *ic.Program, prof *emu.Profile) int64 {
	var total int64
	for pc := range prog.Code {
		if prof.Expect[pc] == 0 {
			continue
		}
		c := prog.Code[pc].Class()
		total += prof.Expect[pc] * machine.SeqCost(c == ic.ClassMemory || c == ic.ClassControl)
	}
	return total
}

// coldStart takes each program through the three finish lines on fresh
// Programs, as a process starting cold would: source → first answer,
// snapshot bytes → first answer, source → simulated result. It adds each
// finish line's time to times[line][program] and returns the engines the
// snapshot line answered on, whose pools now hold a warm machine state.
func coldStart(ctx context.Context, ins []*input, o *outcome, times [][][]float64) ([]*symbol.Engine, error) {
	engines := make([]*symbol.Engine, len(ins))
	for i, in := range ins {
		for li, line := range finishLines {
			o.setupAttempt()
			s, d, eng, err := runPublic(ctx, line, in)
			if err != nil {
				return nil, fmt.Errorf("cold start %s %s: %w", in.name, line, err)
			}
			if s.out != in.expect {
				o.wrong("cold start %s %s: output %q, want %q", in.name, line, s.out, in.expect)
			}
			times[li][i] = append(times[li][i], ms(d))
			switch line {
			case "source_answer":
				in.snap = eng.Program().Snapshot()
			case "snapshot_answer":
				engines[i] = eng
			}
		}
	}
	return engines, nil
}

// setColdStart reports the finish-line metrics of the set-up cold starts:
// per finish line, the geometric mean over programs of each program's
// median.
func setColdStart(m metrics, times [][][]float64) {
	for li, line := range finishLines {
		var meds []float64
		n := 0
		for _, xs := range times[li] {
			meds = append(meds, median(xs))
			n += len(xs)
		}
		m.set(line+"_ms", geomean(meds), "ms", n)
	}
}

func newColdTimes(n int) [][][]float64 {
	t := make([][][]float64, len(finishLines))
	for i := range t {
		t[i] = make([][]float64, n)
	}
	return t
}

// oneshotRef is one input's reference counts and traced layer counts.
type oneshotRef struct {
	src, sched *exactCounts
	lc         [3]*layerCounts // by finish line, first traced sample
}

func runOneshot(ctx context.Context, e *env) (*outcome, error) {
	var ins []*input
	setups, err := setUp(func() { ins = nil }, func() (err error) {
		ins, err = oneshotSetup(ctx, e.seed)
		return err
	})
	if err != nil {
		return nil, err
	}

	o := newOutcome()
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}
	nl := len(finishLines)
	public := make([][]float64, len(ins)*nl) // [input*nl+line] -> ms samples
	layers := make([][]float64, len(ins)*nl)
	traced := make([][]float64, len(ins)*nl)
	refs := make([]oneshotRef, len(ins))
	reqInput := map[int64]int{}
	var poolGets, poolMisses, req int64
	gc0 := readGC()
	o.begin()
	deadline := o.start.Add(e.duration())
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for ii, in := range ins {
			for li, line := range finishLines {
				o.attempt()
				// The traced run rotates each finish line through the
				// public path, the layer-by-layer path untraced (a nil
				// tracer) and the layer-by-layer path traced.
				path := pathPublic
				if e.trace {
					path = (pass + ii) % 3
				}
				var s sample
				var d time.Duration
				var err error
				if path != pathPublic {
					ptr := tr
					if path == pathLayers {
						ptr = nil
					}
					req++
					reqInput[req] = ii
					var lc layerCounts
					s, lc, d, err = runTraced(ptr, req, line, in)
					if err == nil && refs[ii].lc[li] == nil {
						refs[ii].lc[li] = &lc
					}
				} else {
					s, d, _, err = runPublic(ctx, line, in)
					poolGets += s.poolGets
					poolMisses += s.poolMisses
				}
				if err != nil {
					o.wrong("%s %s: %v", in.name, line, err)
					continue
				}
				if s.out != in.expect {
					o.wrong("%s %s: output %q, want %q", in.name, line, s.out, in.expect)
					continue
				}
				ref := &refs[ii].src
				if line == "schedule_sim" {
					ref = &refs[ii].sched
				}
				if *ref == nil {
					c := s.counts
					*ref = &c
				} else if **ref != s.counts {
					o.wrong("%s %s: exact counts %+v differ from %+v earlier in this run", in.name, line, s.counts, **ref)
					continue
				}
				o.ok(d)
				switch path {
				case pathPublic:
					public[ii*nl+li] = append(public[ii*nl+li], ms(d))
				case pathLayers:
					layers[ii*nl+li] = append(layers[ii*nl+li], ms(d))
				default:
					traced[ii*nl+li] = append(traced[ii*nl+li], ms(d))
				}
			}
		}
	}
	wall := time.Since(o.start)
	gc1 := readGC()

	perInput := map[string]exactCounts{}
	for ii, in := range ins {
		if refs[ii].src != nil && refs[ii].sched != nil {
			c := *refs[ii].src
			c.VliwCycles, c.Speedup = refs[ii].sched.VliwCycles, refs[ii].sched.Speedup
			perInput[in.name] = c
		}
	}
	if err := o.crossCheck(perInput); err != nil {
		return nil, err
	}

	m := o.m
	// Every pass is the same fixed mix, so the whole run is one window.
	o.setCommon(wall, 1)
	// The mix's latencies cluster by program and finish line, and the
	// median operation falls in a gap between clusters, where it moved by
	// 30% between runs. The percentiles over finish lines (input × line)
	// of each one's median latency are steadier. They are taken over the
	// corpus only: the seeded knowledge base adds three finish lines whose
	// latencies change with the seed, and they moved the median across a
	// gap between clusters on some seeds. The finish-line metrics cover it.
	var lineMeds []float64
	for _, xs := range public[:(len(ins)-1)*nl] { // the knowledge base is last
		if len(xs) > 0 {
			lineMeds = append(lineMeds, median(xs))
		}
	}
	m.set("p50_ms", median(lineMeds), "ms", len(lineMeds))
	m.set("p99_ms", quantile(lineMeds, 0.99), "ms", len(lineMeds))
	m.set("setup_s", median(setups), "s", len(setups))
	// steps_per_s weighs inputs alike, as the finish-line metrics do: the
	// geometric mean over inputs and answer lines of steps ÷ median time.
	// (A plain sum is sendmore's rate: it runs 50M of the pass's 62M steps.)
	var rates []float64
	for ii := range ins {
		for li, line := range finishLines {
			if xs := public[ii*nl+li]; line != "schedule_sim" && len(xs) > 0 && refs[ii].src != nil {
				rates = append(rates, float64(refs[ii].src.EmuSteps)/(median(xs)/1000))
			}
		}
	}
	m.set("steps_per_s", geomean(rates), "1/s", len(rates))
	for li, line := range finishLines {
		var meds []float64
		n := 0
		for ii := range ins {
			if xs := public[ii*nl+li]; len(xs) > 0 {
				meds = append(meds, median(xs))
				n += len(xs)
			}
		}
		m.set(line+"_ms", geomean(meds), "ms", n)
	}
	if !e.trace {
		return o, nil
	}

	// Traced run. Tracing overhead: the layer-by-layer path with spans
	// against the same path without. The public path's own cost over the
	// layer calls it makes is reported apart, as api.overhead_pct.
	var pubMeds, layMeds, trMeds []float64
	for i := range public {
		if len(public[i]) > 0 && len(layers[i]) > 0 && len(traced[i]) > 0 {
			pubMeds = append(pubMeds, median(public[i]))
			layMeds = append(layMeds, median(layers[i]))
			trMeds = append(trMeds, median(traced[i]))
		}
	}
	m.set("trace.overhead_pct", pctChange(geomean(trMeds), geomean(layMeds)), "%", len(trMeds))
	m.set("api.overhead_pct", pctChange(geomean(pubMeds), geomean(layMeds)), "%", len(pubMeds))
	a := tr.analyze()
	for _, l := range []struct{ span, metric string }{
		{"parse", "parse.ms"}, {"compile", "compile.ms"}, {"expand", "expand.ms"}, {"rename", "rename.ms"},
		{"exec.predecode", "exec.predecode_ms"}, {"snapshot.decode", "snapshot.decode_ms"},
		{"ic.state_new", "ic.state_new_ms"}, {"ic.reset", "ic.reset_ms"}, {"emu.run", "emu.run_ms"},
		{"core.profile", "core.profile_ms"}, {"core.schedule", "core.schedule_ms"}, {"vliw.sim", "vliw.sim_ms"},
	} {
		v, n := a.groupMS(l.span, func(req int64) int { return reqInput[req] })
		m.set(l.metric, v, "ms", n)
	}
	u, n := a.unattributedMS()
	m.set("unattributed_ms", u, "ms", n)

	// Work counts: per input from its first traced sample, summed over one
	// pass of the inputs (ratios averaged).
	var sum layerCounts
	var speedups, traceLens []float64
	for ii := range ins {
		src, snap, sched := refs[ii].lc[0], refs[ii].lc[1], refs[ii].lc[2]
		if src != nil {
			sum.clauses += src.clauses
			sum.bamInsts += src.bamInsts
			sum.expandICIs += src.expandICIs
			sum.renameICIs += src.renameICIs
			sum.fusedOps += src.fusedOps
			sum.dirtyPages += src.dirtyPages
			sum.steps += src.steps
			sum.memOps += src.memOps
			sum.cpPushes += src.cpPushes
		}
		if snap != nil {
			sum.snapBytes += snap.snapBytes
		}
		if sched != nil {
			sum.words += sched.words
			sum.ops += sched.ops
			sum.cycles += sched.cycles
			speedups = append(speedups, sched.speedup)
			traceLens = append(traceLens, sched.avgTraceLen)
		}
	}
	var runSteps float64
	var runTime time.Duration
	for i, s := range a.spans {
		if s.Name == "emu.run" && s.End >= 0 {
			if c := refs[reqInput[s.Req]].src; c != nil {
				runSteps += float64(c.EmuSteps)
				runTime += a.self[i]
			}
		}
	}
	cnt := len(ins)
	m.set("parse.clauses", float64(sum.clauses), "count", cnt)
	m.set("compile.bam_insts", float64(sum.bamInsts), "count", cnt)
	m.set("expand.icis", float64(sum.expandICIs), "count", cnt)
	m.set("rename.icis", float64(sum.renameICIs), "count", cnt)
	m.set("exec.fused_ops", float64(sum.fusedOps), "count", cnt)
	m.set("snapshot.bytes", float64(sum.snapBytes), "B", cnt)
	m.set("ic.dirty_pages", float64(sum.dirtyPages), "count", cnt)
	m.set("emu.steps", float64(sum.steps), "count", cnt)
	m.set("emu.mem_ops", float64(sum.memOps), "count", cnt)
	m.set("emu.cp_pushes", float64(sum.cpPushes), "count", cnt)
	m.set("emu.steps_per_s", runSteps/max(runTime.Seconds(), 1e-9), "1/s", cnt)
	m.set("core.words", float64(sum.words), "count", cnt)
	m.set("core.ops", float64(sum.ops), "count", cnt)
	m.set("core.avg_trace_len", mean(traceLens), "count", len(traceLens))
	m.set("vliw.cycles", float64(sum.cycles), "count", cnt)
	m.set("vliw.speedup", geomean(speedups), "ratio", len(speedups))
	m.set("engine.pool_hit_ratio", 1-float64(poolMisses)/float64(max(poolGets, 1)), "ratio", int(poolGets))
	setEngineGC(m, gc0, gc1, int(o.attempted))
	return o, tr.save(e, "oneshot")
}
