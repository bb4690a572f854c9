package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"symbol/internal/benchprog"
	"symbol/internal/obs"
	"symbol/internal/serve"
)

// memLimit is the Go runtime's soft memory limit while serve_mix serves.
// Every machine state is a 152 MB heap image, and the query cache's
// default byte budget (2 GiB) holds about 13 of them; without a limit the
// collector let the heap grow past 7 GB. With the limit the collector and
// the scavenger hold the process near it, as a deployment on a shared
// 8 GB machine would have to. The limit caps serve_mix's peak_rss_mb;
// engine.live_heap_mb (the heap the collector found live) is not capped by it.
// The other workloads run without a limit.
const memLimit = 2 << 30

// serveRate is the open loop's mean arrival rate (requests per second).
// On a 2-CPU machine the server keeps up with it: no request waits for
// admission or is shed, and the send lag (queueing for the client's two
// connections) does not grow with the run's length (see README.md).
const serveRate = 40

// The request classes and their shares of arrivals. No observed traffic
// exists to take them from; the shares are a choice. Cold queries (each
// compiles and allocates a 152 MB machine image) are kept rare enough that
// the rate above stays sustainable, and the rest is split between the
// classes the server answers from warm state.
const (
	classRun = iota
	classQueryHot
	classQueryCold
	classPaged
	numClasses
)

var classNames = [numClasses]string{"run", "query_hot", "query_cold", "paged"}
var classShare = [numClasses]float64{0.45, 0.35, 0.1, 0.1}

// serveKBs are the knowledge bases the server preloads; the /run class
// draws from serveRunKBs, the query classes use the others' predicates.
var (
	serveKBs    = []string{"crypt", "fib", "qsort", "queens_8", "reverse", "tak", "zebra"}
	serveRunKBs = []string{"crypt", "qsort", "queens_8", "zebra"}
)

// The hot sets are well under what the query cache holds (64 entries, or
// fewer by its byte budget), so after warm-up their goals hit the cache.
// Their sizes are a choice, not taken from observed traffic.
const (
	hotQueries = 6
	hotPaged   = 3
)

// job is one scheduled request.
type job struct {
	req    int64
	due    time.Duration // offset from the start of the measured phase
	class  int
	kb     string
	goal   string
	expect string
	paged  *pagedQuery
	traced bool
}

// serveSchedule draws the whole open-loop schedule from the seed:
// exponential inter-arrival gaps at serveRate, a class per arrival, and the
// class's goal.
func serveSchedule(seed uint64, d time.Duration, trace bool, hot []query, paged []pagedQuery) []job {
	arr := newRand(seed, 2)
	cls := newRand(seed, 3)
	cold := newRand(seed, 6)
	var jobs []job
	var t time.Duration
	for n := int64(1); ; n++ {
		t += time.Duration(arr.ExpFloat64() / serveRate * float64(time.Second))
		if t >= d {
			return jobs
		}
		j := job{req: n, due: t, traced: trace && cls.IntN(2) == 1}
		r := cls.Float64()
		for j.class = 0; j.class < numClasses-1 && r >= classShare[j.class]; j.class++ {
			r -= classShare[j.class]
		}
		switch j.class {
		case classRun:
			j.kb = serveRunKBs[cls.IntN(len(serveRunKBs))]
			b, _ := benchprog.Get(j.kb)
			j.expect = b.Expect
		case classQueryHot:
			q := hot[cls.IntN(len(hot))]
			j.kb, j.goal, j.expect = q.kb, q.goal, q.expect
		case classQueryCold:
			q := genQuery(cold)
			j.kb, j.goal, j.expect = q.kb, q.goal, q.expect
		default:
			p := paged[cls.IntN(len(paged))]
			j.kb, j.paged = "queens_8", &p
		}
		jobs = append(jobs, j)
	}
}

// Headers carrying the benchmark's request id and parent span to its own
// handler wrapper.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

// timedHandler wraps the server's ServeHTTP: it sums the handler time of
// each benchmark request and, for traced requests, records a
// serve.handler span under the client's span.
type timedHandler struct {
	h       http.Handler
	tr      *tracer
	mu      sync.Mutex
	handler map[int64]time.Duration
}

func (t *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
	sid := int32(-1)
	if p := r.Header.Get(hdrSpan); p != "" {
		parent, _ := strconv.ParseInt(p, 10, 32)
		sid = t.tr.begin("serve.handler", int32(parent), req)
	}
	start := time.Now()
	t.h.ServeHTTP(w, r)
	d := time.Since(start)
	t.tr.end(sid)
	t.mu.Lock()
	t.handler[req] += d
	t.mu.Unlock()
}

// server is one booted serving stack.
type server struct {
	s    *serve.Server
	th   *timedHandler
	http *httptest.Server
}

func (sv *server) close() {
	sv.http.Close()
	sv.s.Close()
}

// client issues the benchmark's requests over at most nproc connections.
type client struct {
	base string
	hc   *http.Client
}

// result is what one scheduled request returned.
type result struct {
	ok     bool
	out    []string // answers (one per solution for paged)
	cursor string   // where a paged query continues ("" when done)
	steps  int64
	wallNS int64
	status int
	shed   string
	err    error
}

func (c *client) do(method, path, body string, req int64, span int32, paged bool) result {
	r, err := http.NewRequest(method, c.base+path, strings.NewReader(body))
	if err != nil {
		return result{err: err}
	}
	r.Header.Set(hdrReq, strconv.FormatInt(req, 10))
	if span >= 0 {
		r.Header.Set(hdrSpan, strconv.Itoa(int(span)))
	}
	resp, err := c.hc.Do(r)
	if err != nil {
		return result{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return result{err: err}
	}
	res := result{status: resp.StatusCode, shed: resp.Header.Get(serve.ShedReasonHeader)}
	var sr serve.Response
	if err := json.Unmarshal(data, &sr); err != nil {
		res.err = fmt.Errorf("decode %s: %w", path, err)
		return res
	}
	res.ok, res.steps, res.wallNS = sr.OK, sr.Steps, sr.WallNS
	if !paged {
		res.out = []string{sr.Output}
		return res
	}
	for _, s := range sr.Solutions {
		res.out = append(res.out, s.Output)
	}
	if sr.More {
		res.cursor = sr.Cursor
	}
	return res
}

// run performs j (following cursors for paged queries) and returns the
// answers it collected.
func (c *client) run(j *job, span int32) result {
	switch j.class {
	case classRun:
		return c.do(http.MethodGet, "/run/"+j.kb, "", j.req, span, false)
	case classQueryHot, classQueryCold:
		return c.do(http.MethodPost, "/query/"+j.kb, j.goal, j.req, span, false)
	}
	path := "/query/" + j.kb + "?limit=" + strconv.Itoa(j.paged.limit) + "&q=" + url.QueryEscape(j.paged.goal)
	var all result
	for {
		r := c.do(http.MethodGet, path, "", j.req, span, true)
		all.status, all.shed, all.err, all.steps, all.wallNS = r.status, r.shed, r.err, r.steps, r.wallNS
		if r.err != nil || r.status != http.StatusOK {
			return all
		}
		all.out = append(all.out, r.out...)
		if r.cursor == "" {
			all.ok = len(all.out) > 0
			return all
		}
		path = "/query/" + j.kb + "?cursor=" + url.QueryEscape(r.cursor)
	}
}

// check compares a result with j's oracle answer. A transport error or a
// non-200 status (a shed, a deadline) is a failure; a 200 whose answer
// differs from the oracle's is a wrong answer.
func (j *job) check(r result) (ok bool, wrong bool, why string) {
	switch {
	case r.err != nil:
		return false, false, r.err.Error()
	case r.status != http.StatusOK:
		return false, false, fmt.Sprintf("status %d shed %q", r.status, r.shed)
	case !r.ok:
		return false, true, "no solution"
	}
	want := []string{j.expect}
	if j.paged != nil {
		want = j.paged.expect
	}
	if strings.Join(r.out, "|") != strings.Join(want, "|") {
		return false, true, fmt.Sprintf("answers %q, want %q", r.out, want)
	}
	return true, false, ""
}

// bootServer is serve_mix's set-up: cold-start the knowledge bases (which
// also yields their snapshots), boot serve.New from those snapshots at its
// default config, mount it on a loopback listener, and warm it with one
// request per run KB and per hot goal.
func bootServer(ctx context.Context, ins []*input, o *outcome, times [][][]float64, hot []query, paged []pagedQuery, tr *tracer) (*server, error) {
	if _, err := coldStart(ctx, ins, o, times); err != nil {
		return nil, err
	}
	kbs := make([]serve.KB, len(ins))
	for i, in := range ins {
		kbs[i] = serve.KB{Name: in.name, Source: in.src, Snapshot: in.snap}
	}
	s, err := serve.New(serve.Config{}, kbs...)
	if err != nil {
		return nil, err
	}
	th := &timedHandler{h: s, tr: tr, handler: map[int64]time.Duration{}}
	sv := &server{s: s, th: th, http: httptest.NewServer(th)}
	c := newClient(sv)
	defer c.hc.CloseIdleConnections()
	var warm []job
	for _, kb := range serveRunKBs {
		b, _ := benchprog.Get(kb)
		warm = append(warm, job{class: classRun, kb: kb, expect: b.Expect})
	}
	for _, q := range hot {
		warm = append(warm, job{class: classQueryHot, kb: q.kb, goal: q.goal, expect: q.expect})
	}
	for i := range paged {
		warm = append(warm, job{class: classPaged, kb: "queens_8", paged: &paged[i]})
	}
	for i := range warm {
		o.setupAttempt()
		if ok, _, why := warm[i].check(c.run(&warm[i], -1)); !ok {
			o.wrong("warm-up %s %s: %s", classNames[warm[i].class], warm[i].kb, why)
		}
	}
	return sv, nil
}

func newClient(sv *server) *client {
	n := runtime.NumCPU()
	return &client{
		base: sv.http.URL,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
		}},
	}
}

// runServeMix sends the seeded open-loop schedule to serve.New on loopback
// from nproc workers, timing each request from when it was due.
func runServeMix(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	ins := make([]*input, len(serveKBs))
	for i, name := range serveKBs {
		b, err := benchprog.Get(name)
		if err != nil {
			return nil, err
		}
		ins[i] = &input{name: b.Name, src: b.Source, expect: b.Expect}
	}
	hotRng, pagedRng := newRand(e.seed, 4), newRand(e.seed, 5)
	hot := make([]query, hotQueries)
	for i := range hot {
		hot[i] = genQuery(hotRng)
	}
	paged := make([]pagedQuery, hotPaged)
	for i := range paged {
		paged[i] = genPaged(pagedRng)
	}
	var tr *tracer
	if e.trace {
		tr = newTracer()
	}

	times := newColdTimes(len(ins))
	var sv *server
	drop := func() {
		if sv != nil {
			sv.close()
			sv = nil
		}
	}
	setups, err := setUp(drop, func() (err error) {
		sv, err = bootServer(ctx, ins, o, times, hot, paged, tr)
		return err
	})
	if err != nil {
		return nil, err
	}
	// The limit covers the serving phase only: set-up measures the cold
	// starts the way the other workloads do, without one.
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(memLimit))
	sv.th.mu.Lock()
	clear(sv.th.handler) // warm-up requests
	sv.th.mu.Unlock()

	jobs := serveSchedule(e.seed, e.duration(), e.trace, hot, paged)
	c := newClient(sv)
	srv0, eng0 := sv.s.Metrics(), sv.s.EngineMetrics()
	gc0 := readGC()

	type done struct {
		lat, lag, client time.Duration
		steps, wallNS    int64
		ok               bool
	}
	results := make([]done, len(jobs))
	queue := make(chan int, len(jobs)) // every job fits: the dispatcher never blocks
	o.begin()
	start := o.start
	var wg sync.WaitGroup
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				j := &jobs[i]
				due := start.Add(j.due)
				sent := time.Now()
				o.attempt()
				root := int32(-1)
				if j.traced {
					root = tr.begin("request", -1, j.req)
				}
				r := c.run(j, root)
				tr.end(root)
				end := time.Now()
				ok, wrong, why := j.check(r)
				results[i] = done{lat: end.Sub(due), lag: sent.Sub(due), client: end.Sub(sent), steps: r.steps, wallNS: r.wallNS, ok: ok}
				switch {
				case ok:
					o.ok(end.Sub(due))
				case wrong:
					o.wrong("%s %s %q: %s", classNames[j.class], j.kb, j.goal, why)
				default:
					o.fail("%s %s %q: %s", classNames[j.class], j.kb, j.goal, why)
				}
			}
		}()
	}
	for i := range jobs {
		time.Sleep(time.Until(start.Add(jobs[i].due)))
		queue <- i
	}
	close(queue)
	wg.Wait()
	wall := time.Since(start)
	gc1 := readGC()
	// Closing waits for every handler, so the handler times are complete.
	c.hc.CloseIdleConnections()
	sv.close()
	srv1, eng1 := sv.s.Metrics(), sv.s.EngineMetrics()

	m := o.m
	o.setCommon(wall, int(wall/window))
	m.set("setup_s", median(setups), "s", len(setups))
	setColdStart(m, times)
	// Engine speed as served, from the run time each response reports
	// (its wall_ns, measured by the executor): per run KB, steps ÷ its
	// fastest run, then the geometric mean over the run KBs. As on steady,
	// a /run does the same steps every time, so time beyond its fastest is
	// interference from the shared machine. The query classes are left
	// out: their goals change with the seed, and their runs are short
	// enough (85 steps to 20k) that fixed per-run costs set their rates.
	var steps, wallNS int64
	fastNS := map[string]int64{}
	kbSteps := map[string]int64{}
	for i, r := range results {
		if !r.ok {
			continue
		}
		steps += r.steps
		wallNS += r.wallNS
		if j := &jobs[i]; j.class == classRun && r.wallNS > 0 {
			if f, seen := fastNS[j.kb]; !seen || r.wallNS < f {
				fastNS[j.kb] = r.wallNS
			}
			kbSteps[j.kb] = r.steps
		}
	}
	var rates []float64
	for kb, f := range fastNS {
		rates = append(rates, float64(kbSteps[kb])/(float64(f)/1e9))
	}
	m.set("steps_per_s", geomean(rates), "1/s", len(rates))
	if !e.trace {
		return o, nil
	}

	// Per class, per layer.
	var classLat [numClasses][]float64
	var lags, transport, handler, runMS []float64
	var trLat, pubLat []float64
	for i, r := range results {
		lags = append(lags, ms(r.lag))
		if !r.ok {
			continue
		}
		j := &jobs[i]
		classLat[j.class] = append(classLat[j.class], ms(r.lat))
		h := sv.th.handler[j.req]
		handler = append(handler, ms(h))
		transport = append(transport, ms(r.client-h))
		runMS = append(runMS, float64(r.wallNS)/1e6)
		if j.traced {
			trLat = append(trLat, ms(r.lat))
		} else {
			pubLat = append(pubLat, ms(r.lat))
		}
	}
	for cl := range numClasses {
		m.set("serve."+classNames[cl]+"_p99_ms", quantile(classLat[cl], 0.99), "ms", len(classLat[cl]))
	}
	m.set("loadgen.lag_p99_ms", quantile(lags, 0.99), "ms", len(lags))
	m.set("serve.handler_ms", median(handler), "ms", len(handler))
	m.set("serve.transport_ms", median(transport), "ms", len(transport))
	qw := srv1.QueueWaitSeconds.Sub(srv0.QueueWaitSeconds)
	m.set("serve.queue_wait_ms", 1000*histQuantile(qw, 0.99), "ms", int(qw.Total()))
	batches := srv1.BatchesTotal - srv0.BatchesTotal
	members := srv1.BatchMembersTotal - srv0.BatchMembersTotal
	runs := srv1.BatchRunsTotal - srv0.BatchRunsTotal
	m.set("serve.batch_size_mean", float64(members)/float64(max(batches, 1)), "count", int(batches))
	m.set("serve.coalesce_saved_ratio", float64(members-runs)/float64(max(members, 1)), "ratio", int(members))
	m.set("serve.sheds", float64(srv1.ShedTotal()-srv0.ShedTotal()), "count", len(jobs))
	m.set("emu.run_ms", median(runMS), "ms", len(runMS))
	m.set("emu.steps", float64(steps)/float64(max(len(runMS), 1)), "count", len(runMS))
	m.set("emu.steps_per_s", float64(steps)/max(float64(wallNS)/1e9, 1e-9), "1/s", len(runMS))
	started := eng1.Started - eng0.Started
	m.set("emu.mem_ops", float64(eng1.Totals.MemOps-eng0.Totals.MemOps)/float64(max(started, 1)), "count", int(started))
	m.set("emu.cp_pushes", float64(eng1.Totals.ChoicePoints-eng0.Totals.ChoicePoints)/float64(max(started, 1)), "count", int(started))
	m.set("ic.dirty_pages", float64(eng1.DirtyPagesReset-eng0.DirtyPagesReset)/float64(max(started, 1)), "count", int(started))
	gets, misses := eng1.PoolGets-eng0.PoolGets, eng1.PoolMisses-eng0.PoolMisses
	m.set("engine.pool_hit_ratio", 1-float64(misses)/float64(max(gets, 1)), "ratio", int(gets))
	setEngineGC(m, gc0, gc1, int(started))
	m.set("trace.overhead_pct", pctChange(median(trLat), median(pubLat)), "%", len(trLat))
	u, n := tr.analyze().unattributedMS()
	m.set("unattributed_ms", u, "ms", n)
	return o, tr.save(e, "serve_mix")
}

// histQuantile estimates the q-quantile of h by linear interpolation
// inside the bucket holding it (obs.Histogram.Quantile returns the
// bucket's upper bound).
func histQuantile(h obs.Histogram, q float64) float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	lo := 0.0
	for i, c := range h.Counts {
		if cum+float64(c) >= rank && c > 0 {
			if i >= len(h.Bounds) {
				return lo
			}
			return lo + (h.Bounds[i]-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
		if i < len(h.Bounds) {
			lo = h.Bounds[i]
		}
	}
	return lo
}
