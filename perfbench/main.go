// Command perfbench is the repository's benchmark: one command that runs a
// named workload from a seed, checks every answer against an oracle that
// does not use this compiler, and prints its metrics. Run it through
// run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload oneshot --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run records spans around every
// call into a layer and reports the per-layer ones. See README.md for the
// workloads and what each metric means.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// setupTrials is how many times a run sets its workload up; setup_s is the
// median.
const setupTrials = 5

// setUp times setupTrials runs of one set-up. Before each it calls drop,
// which releases the previous trial's result, and collects the heap (not
// timed), so every trial starts from the same clean heap. It returns the
// durations in seconds.
func setUp(drop func(), trial func() error) ([]float64, error) {
	var secs []float64
	for range setupTrials {
		drop()
		runtime.GC()
		start := time.Now()
		if err := trial(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return secs, nil
}

// sloMS is the latency limit slo_ratio counts against, on every workload.
const sloMS = 100

// outDir holds what a run leaves behind (span files, exact counts),
// relative to the directory the benchmark runs from.
const outDir = ".bench_build/perfbench"

type env struct {
	seed    uint64
	seconds int
	trace   bool
}

func (e *env) duration() time.Duration { return time.Duration(e.seconds) * time.Second }

// outcome accumulates one run's operations and metrics. Safe for use by
// concurrent workers.
type outcome struct {
	mu        sync.Mutex
	attempted int64
	setupOps  int64 // attempted during set-up: checked, but not timed
	failed    int64
	incorrect bool
	notes     []string
	start     time.Time       // start of the measured phase
	ops       []op            // answered operations of the measured phase
	failAt    []time.Duration // failures of the measured phase, from its start
	m         metrics
}

// op is one operation answered correctly in the measured phase.
type op struct {
	at  time.Duration // completion, from the start of the measured phase
	lat float64       // ms
}

// window is the length of the slices of the measured phase that the
// latency metrics of the traffic workloads (and peak_rss_mb) are computed
// over: each is the median, across slices, of the slice's value. Latency
// here depends on when the collector drops the engines' pooled 152 MB
// machine states, which comes in bursts that differ from run to run; a
// median over slices keeps one burst from moving the result.
const window = 2 * time.Second

func newOutcome() *outcome { return &outcome{m: metrics{}} }

const maxNotes = 20

func (o *outcome) note(format string, args ...any) {
	if len(o.notes) < maxNotes {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// fail records an operation that was refused or errored in transport: it
// counts against ok_ratio but is not a wrong answer.
func (o *outcome) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed++
	o.failedAt()
	o.note(format, args...)
}

// wrong records a wrong answer, an unexpected error from the program or an
// exact-count mismatch: the run is not correct.
func (o *outcome) wrong(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.failed++
	o.incorrect = true
	o.failedAt()
	o.note(format, args...)
}

func (o *outcome) failedAt() {
	if !o.start.IsZero() {
		o.failAt = append(o.failAt, time.Since(o.start))
	}
}

// begin marks the start of the measured phase.
func (o *outcome) begin() { o.start = time.Now() }

// ok records an operation answered correctly after latency d.
func (o *outcome) ok(d time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ops = append(o.ops, op{at: time.Since(o.start), lat: ms(d)})
}

// attempt counts one operation.
func (o *outcome) attempt() {
	o.mu.Lock()
	o.attempted++
	o.mu.Unlock()
}

// setupAttempt counts one operation made during set-up. It is checked and
// counts toward ok_ratio, but slo_ratio covers the measured phase only.
func (o *outcome) setupAttempt() {
	o.mu.Lock()
	o.attempted++
	o.setupOps++
	o.mu.Unlock()
}

// setCommon sets the end-to-end metrics every workload computes the same
// way from its operation log: ok_ratio over the whole run, and the latency
// percentiles and slo_ratio from each window of the measured phase.
// p99_ms and slo_ratio are the median over windows of each window's value.
// p50_ms is the lower quartile over windows of each window's median: the
// shared machine slows the program in spells of seconds to minutes, which
// only add latency, and a spell that covers half a run moves the median
// window but not the lower quartile. A failed operation counts against
// slo_ratio in the window where it failed.
func (o *outcome) setCommon(measured time.Duration, windows int) {
	windows = max(windows, 1)
	n := int(o.attempted)
	o.m.set("ok_ratio", float64(o.attempted-o.failed)/float64(max(o.attempted, 1)), "ratio", n)
	window := func(at time.Duration) int {
		return min(int(at*time.Duration(windows)/max(measured, 1)), windows-1)
	}
	lat := make([][]float64, windows)
	failed := make([]int, windows)
	for _, p := range o.ops {
		w := window(p.at)
		lat[w] = append(lat[w], p.lat)
	}
	for _, at := range o.failAt {
		failed[window(at)]++
	}
	var p50, p99, slo []float64
	for w, xs := range lat {
		if len(xs) == 0 {
			continue
		}
		p50 = append(p50, quantile(xs, 0.5))
		p99 = append(p99, quantile(xs, 0.99))
		in := 0
		for _, x := range xs {
			if x <= sloMS {
				in++
			}
		}
		slo = append(slo, float64(in)/float64(len(xs)+failed[w]))
	}
	o.m.set("p50_ms", quantile(p50, 0.25), "ms", len(o.ops))
	o.m.set("p99_ms", median(p99), "ms", len(o.ops))
	o.m.set("slo_ratio", median(slo), "ratio", n-int(o.setupOps))
}

// endToEnd and perLayer are the metrics BENCHMARK.json declares, with their
// units. A run prints every one of its kind; a per-layer metric a workload
// never exercises reads 0.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"ok_ratio", "ratio"}, {"peak_rss_mb", "MB"},
	{"source_answer_ms", "ms"}, {"snapshot_answer_ms", "ms"}, {"schedule_sim_ms", "ms"},
	{"steps_per_s", "1/s"}, {"p50_ms", "ms"}, {"slo_ratio", "ratio"},
}

var perLayer = []struct{ name, unit string }{
	{"parse.ms", "ms"}, {"parse.clauses", "count"},
	{"compile.ms", "ms"}, {"compile.bam_insts", "count"},
	{"expand.ms", "ms"}, {"expand.icis", "count"}, {"rename.ms", "ms"}, {"rename.icis", "count"},
	{"exec.predecode_ms", "ms"}, {"exec.fused_ops", "count"},
	{"snapshot.decode_ms", "ms"}, {"snapshot.bytes", "B"},
	{"ic.state_new_ms", "ms"}, {"ic.reset_ms", "ms"}, {"ic.dirty_pages", "count"},
	{"engine.pool_hit_ratio", "ratio"}, {"engine.alloc_bytes_per_run", "B"},
	{"engine.gc_cycles", "count"}, {"engine.gc_pause_ms", "ms"}, {"engine.live_heap_mb", "MB"},
	{"emu.run_ms", "ms"}, {"emu.steps", "count"}, {"emu.steps_per_s", "1/s"},
	{"emu.mem_ops", "count"}, {"emu.cp_pushes", "count"},
	{"core.profile_ms", "ms"}, {"core.schedule_ms", "ms"}, {"core.words", "count"},
	{"core.ops", "count"}, {"core.avg_trace_len", "count"},
	{"vliw.sim_ms", "ms"}, {"vliw.cycles", "count"}, {"vliw.speedup", "ratio"},
	{"serve.handler_ms", "ms"}, {"serve.transport_ms", "ms"}, {"serve.queue_wait_ms", "ms"},
	{"serve.batch_size_mean", "count"}, {"serve.coalesce_saved_ratio", "ratio"}, {"serve.sheds", "count"},
	{"serve.run_p99_ms", "ms"}, {"serve.query_hot_p99_ms", "ms"},
	{"serve.query_cold_p99_ms", "ms"}, {"serve.paged_p99_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"unattributed_ms", "ms"}, {"trace.overhead_pct", "%"}, {"api.overhead_pct", "%"},
	// p99_ms is a median over windows, like slo_ratio, but has no bound:
	// serve_mix's p99
	// moves by ±36% (IQR/median over ten runs of one build), more than
	// any bound may allow, because it is set by how many collector bursts
	// a run happens to contain. slo_ratio is the bounded tail metric.
	{"p99_ms", "ms"},
}

var workloads = map[string]func(context.Context, *env) (*outcome, error){
	"oneshot":   runOneshot,
	"steady":    runSteady,
	"serve_mix": runServeMix,
}

func main() {
	workload := flag.String("workload", "", "workload to run: oneshot, steady or serve_mix")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *workload)
		flag.Usage()
		os.Exit(2)
	}
	e := &env{seed: *seed, seconds: *seconds, trace: *trace == 1}
	mem := startMem()
	o, err := run(context.Background(), e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	rss, live, n := mem.peaks()
	o.m.set("peak_rss_mb", rss, "MB", n)
	o.m.set("engine.live_heap_mb", live, "MB", n)
	if err := report(os.Stdout, *workload, e, o); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// report prints the human-readable table (with sample counts and the
// failure notes), then the JSON result line.
func report(w *os.File, workload string, e *env, o *outcome) error {
	if o.attempted == 0 {
		return fmt.Errorf("no operation was attempted")
	}
	want := endToEnd
	if e.trace {
		want = perLayer
	}
	out := map[string]metric{}
	for _, d := range want {
		mt, ok := o.m[d.name]
		if !ok {
			mt = metric{Unit: d.unit}
		}
		if mt.Unit != d.unit {
			return fmt.Errorf("metric %s has unit %s, declared %s", d.name, mt.Unit, d.unit)
		}
		out[d.name] = mt
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %v\n", workload, e.seed, e.seconds, e.trace)
	fmt.Fprintf(w, "attempted %d failed %d fail_ratio %.6f\n", o.attempted, o.failed,
		float64(o.failed)/float64(max(o.attempted, 1)))
	for _, n := range o.notes {
		fmt.Fprintf(w, "  failure: %s\n", n)
	}
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-28s %16.6f %-6s n=%d\n", n, out[n].Value, out[n].Unit, out[n].samples)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{!o.incorrect, o.attempted, o.failed, out})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// save writes the run's spans to outDir, named by workload and seed.
func (t *tracer) save(e *env, workload string) error {
	if t == nil {
		return nil
	}
	path, err := t.write(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, e.seed))
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", filepath.Clean(path))
	return nil
}
