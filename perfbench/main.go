// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It generates every rule set and input from --seed, drives
// the program only through its public functions and cad's HTTP API,
// checks every output against oracles of its own, and prints one JSON
// result as the last line of standard output.
//
//	perfbench --workload scan-quiet|paper-eval|serve-mixed --seed N --seconds S --trace 0|1
//	perfbench steady --workload W --runs N --seconds S
//
// See README.md for the workloads, metrics and reference figures.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *bench) error{
	"scan-quiet":  runScanQuiet,
	"paper-eval":  runPaperEval,
	"serve-mixed": runServeMixed,
}

// endToEnd and perLayer name the metrics of an untraced and of a traced
// run, in the order BENCHMARK.json lists them. A run prints a result
// only when it measured every one.
var (
	endToEnd = []string{"setup_s", "scan_mbps", "match_p50_ms", "match_p95_ms", "feed_p50_ms",
		"feed_p95_ms", "serve_rps", "peak_rss_mb"}
	perLayer = []string{
		"regexc.compile_s", "mapper.map_s", "mapper.optimize_s", "machine.new_s",
		"caformat.encode_s", "caformat.decode_s", "caformat.artifact_kb", "mapper.states", "mapper.partitions",
		"machine.run_ns_per_byte", "machine.count_ns_per_byte", "machine.stream_ns_per_byte", "sim.host_gap",
		"sim.cycles", "sim.matches", "sim.avg_active_states", "sim.avg_active_partitions",
		"sim.g1_per_cycle", "sim.g4_per_cycle", "sim.energy_pj_per_symbol",
		"cluster.router_hop_ms", "server.http_ms", "server.match_ms", "server.feed_ms",
		"server.queue_ms", "server.lease_ms", "server.run_ms", "server.wal_ms", "server.unspanned_ms",
		"cluster.checkpoint_kb_per_feed", "server.wal_kb_per_feed",
		"go.alloc_kb_per_req", "go.gc_per_1k_req", "machine.builds", "bench.trace_overhead_pct",
	}
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run: its settings, the operation counts per
// kind, the metrics reported so far, and the first correctness failure.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// work is a scratch directory inside the checkout (WAL files).
	work string

	mu      sync.Mutex
	ops     map[string]*[2]int64 // kind → attempted, failed
	metrics map[string]metric
	wrong   error
}

// op records one attempted operation of a kind; err != nil counts it
// as failed.
func (b *bench) op(kind string, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.ops[kind]
	if c == nil {
		c = new([2]int64)
		b.ops[kind] = c
	}
	c[0]++
	if err != nil {
		c[1]++
	}
}

// incorrect records an output that disagrees with an oracle or a
// property; the run then reports correct=false.
func (b *bench) incorrect(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.wrong == nil {
		b.wrong = err
	}
	fmt.Fprintln(os.Stderr, "perfbench: incorrect:", err)
}

func (b *bench) set(name, unit string, v float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench steady:", err)
			os.Exit(1)
		}
		return
	}
	fl := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fl.String("workload", "", "workload: scan-quiet, paper-eval or serve-mixed")
	seed := fl.Int64("seed", 1, "seed of every generated rule set and input")
	seconds := fl.Float64("seconds", 10, "length of the timed phase")
	trace := fl.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	_ = fl.Parse(os.Args[1:])
	run := workloads[*name]
	if run == nil || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s, --seconds > 0, --trace 0|1\n", strings.Join(names(), ", "))
		os.Exit(2)
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, work: work,
		ops: map[string]*[2]int64{}, metrics: map[string]metric{}}
	printProvenance(b)
	start := time.Now()
	err = run(context.Background(), b)
	_ = os.RemoveAll(work)
	fmt.Fprintf(os.Stderr, "perfbench: %s finished in %.1fs\n", *name, time.Since(start).Seconds())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	os.Exit(b.finish(os.Stdout))
}

func names() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// finish prints the per-kind operation counts and the result line, and
// returns the exit code.
func (b *bench) finish(w io.Writer) int {
	want := endToEnd
	if b.trace {
		want = perLayer
	}
	res := result{Correct: b.wrong == nil, Metrics: map[string]metric{}}
	for _, name := range want {
		m, ok := b.metrics[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s not measured (%v)\n", name, m.Value)
			return 1
		}
		res.Metrics[name] = m
	}
	kinds := make([]string, 0, len(b.ops))
	for k := range b.ops {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		c := b.ops[k]
		fmt.Fprintf(w, "ops %-14s attempted=%d failed=%d\n", k, c[0], c[1])
		res.Attempted += c[0]
		res.Failed += c[1]
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(w, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printProvenance writes the host and program identity of the run as
// one JSON line: CPU model, nproc, GOMAXPROCS, Go version, commit (or a
// hash of the Go sources when the checkout is not a git repository),
// seed and the exact command line.
func printProvenance(b *bench) {
	p := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"workload":   b.workload,
		"seed":       b.seed,
		"seconds":    b.seconds,
		"trace":      b.trace,
		"command":    os.Args,
	}
	line, _ := json.Marshal(map[string]any{"provenance": p})
	fmt.Println(string(line))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the program version: the git HEAD when there is one,
// else "tree:" and a SHA-256 over the checkout's Go sources.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		_, err = h.Write(data)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}
