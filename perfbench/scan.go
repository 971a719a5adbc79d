package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	ca "cacheautomaton"
	"cacheautomaton/internal/telemetry"
)

// Block and chunk sizes of the scan workloads: a "match" operation is one
// RunContext over a block, a "feed" one FeedContext of a chunk into a
// stream running over the whole input.
const (
	blockSize = 8 << 10
	chunkSize = 2 << 10
)

// compileSet compiles a rule set through the public facade.
func compileSet(rs *ruleSet, d ca.Design) (*ca.Automaton, error) {
	o := ca.Options{Design: d}
	switch rs.Kind {
	case kindExact:
		a, _, err := ca.CompileClamAVDatabase(rs.Text, o)
		return a, err
	case kindFuzzy:
		return ca.CompileFuzzy(rs.Pats, rs.MaxDist, o)
	}
	return ca.CompileRegex(rs.Pats, o)
}

// scanCase is one automaton of a scan workload, with its input cut into
// blocks and chunks and the verified reports of each.
type scanCase struct {
	set    *ruleSet
	design ca.Design
	// a is the automaton scanned; orig is the compiled automaton it was
	// loaded from when the workload round-trips through Save/Load.
	a, orig   *ca.Automaton
	blocks    [][]byte
	chunks    [][]byte
	blockWant [][]report
	chunkWant [][]report

	// streams run over the whole input, one for even rounds and one for
	// odd ones, so round 2i+1 (traced in a traced run) feeds the chunks
	// round 2i fed; next is each stream's next chunk.
	streams [2]*ca.Stream
	next    [2]int
}

func (c *scanCase) label() string { return c.set.Name + "/" + c.design.String() }

func cut(b []byte, n int) [][]byte {
	var out [][]byte
	for len(b) >= n {
		out = append(out, b[:n:n])
		b = b[n:]
	}
	return out
}

func toReports(ms []ca.Match) []report {
	out := make([]report, len(ms))
	for i, m := range ms {
		out[i] = report{Off: m.Offset, Pat: m.Pattern}
	}
	return out
}

// scanSpec describes one scan workload.
type scanSpec struct {
	// sets generates the workload's rule sets and inputs from a seed.
	sets    func(seed int64) []*ruleSet
	designs []ca.Design
	// roundTrip scans Load(Save(a)) instead of a, and times Save and
	// Load as part of set-up.
	roundTrip bool
	// setupReps is how many timed set-ups (see timedSetup) the median of
	// setup_s is over; setupSecs holds their times.
	setupReps int
	setupSecs []float64
}

// setup compiles every (set, design) — and round-trips it when the spec
// says so — returning the cases in set-major order.
func (sp *scanSpec) setup(b *bench, sets []*ruleSet) ([]*scanCase, error) {
	var cases []*scanCase
	for _, rs := range sets {
		for _, d := range sp.designs {
			a, err := compileSet(rs, d)
			b.op("compile", err)
			if err != nil {
				return nil, fmt.Errorf("compile %s/%s: %w", rs.Name, d, err)
			}
			c := &scanCase{set: rs, design: d, a: a}
			if sp.roundTrip {
				var buf bytes.Buffer
				err := ca.Save(a, &buf)
				b.op("save", err)
				if err != nil {
					return nil, fmt.Errorf("save %s: %w", c.label(), err)
				}
				la, err := ca.Load(&buf, ca.Options{})
				b.op("load", err)
				if err != nil {
					return nil, fmt.Errorf("load %s: %w", c.label(), err)
				}
				c.a, c.orig = la, a
			}
			cases = append(cases, c)
		}
	}
	return cases, nil
}

// timedSetup times the j-th of a run's setupReps set-ups after a settled
// GC, and returns its cases. The first sets up the run's own rule sets
// (sets). Each later one sets up sets of the same shape drawn from seed
// j × 1000003, the same in every run. Compile time depends on the rule
// contents (the CA_S ladder by up to 10x), so setup_s, the median over
// all of them, compares like with like across runs while the scanned
// contents vary with the seed.
func (sp *scanSpec) timedSetup(b *bench, sets []*ruleSet, j int) ([]*scanCase, error) {
	if j > 0 {
		sets = sp.sets(int64(j) * 1_000_003)
	}
	settle()
	t0 := time.Now()
	cases, err := sp.setup(b, sets)
	if err != nil {
		return nil, err
	}
	sp.setupSecs = append(sp.setupSecs, time.Since(t0).Seconds())
	return cases, nil
}

// verify checks every case against the oracles and the method's
// properties before anything is timed, and records the verified reports
// each timed operation must reproduce.
func verify(ctx context.Context, b *bench, cases []*scanCase) error {
	stream := map[string][]report{}
	for _, c := range cases {
		or, err := newOracle(c.set, 2048)
		if err != nil {
			return err
		}
		c.blocks, c.chunks = cut(c.set.Input, blockSize), cut(c.set.Input, chunkSize)
		freq := c.a.FrequencyGHz()
		for k, blk := range c.blocks {
			ms, st, err := c.a.RunContext(ctx, blk)
			b.op("verify", err)
			if err != nil {
				return fmt.Errorf("%s block %d: %w", c.label(), k, err)
			}
			got := toReports(ms)
			lo := int64(k * blockSize)
			if err := or.check(blk, got, plantedIn(c.set.Planted, lo, lo+blockSize)); err != nil {
				b.incorrect(fmt.Errorf("%s block %d: %w", c.label(), k, err))
			}
			if err := checkStats(st, len(blk), len(ms), freq); err != nil {
				b.incorrect(fmt.Errorf("%s block %d: %w", c.label(), k, err))
			}
			c.blockWant = append(c.blockWant, got)
		}
		s, err := c.a.StreamContext(ctx)
		b.op("verify", err)
		if err != nil {
			return fmt.Errorf("%s: open stream: %w", c.label(), err)
		}
		var all []report
		for k, ch := range c.chunks {
			ms, err := s.FeedContext(ctx, ch)
			b.op("verify", err)
			if err != nil {
				s.Close()
				return fmt.Errorf("%s chunk %d: %w", c.label(), k, err)
			}
			got := toReports(ms)
			c.chunkWant = append(c.chunkWant, got)
			all = append(all, got...)
		}
		s.Close()
		whole := c.set.Input[:len(c.chunks)*chunkSize]
		if err := or.check(whole, all, plantedIn(c.set.Planted, 0, int64(len(whole)))); err != nil {
			b.incorrect(fmt.Errorf("%s stream: %w", c.label(), err))
		}
		if prev, ok := stream[c.set.Name]; ok {
			if err := sameReports(prev, all); err != nil {
				b.incorrect(fmt.Errorf("%s: CA_P and CA_S report different sets: %w", c.set.Name, err))
			}
		}
		stream[c.set.Name] = all
		if c.orig != nil {
			if err := sameRun(ctx, b, c.orig, c.a, c.blocks[0]); err != nil {
				b.incorrect(fmt.Errorf("%s: Load(Save(a)) differs from a: %w", c.label(), err))
			}
		}
	}
	return nil
}

// checkStats checks the simulated statistics of one run: one cycle per
// byte, one report per match, and modeled time = cycles ÷ frequency.
func checkStats(st *ca.Stats, n, matches int, freqGHz float64) error {
	if st.Cycles != int64(n) {
		return fmt.Errorf("cycles %d, want %d bytes scanned", st.Cycles, n)
	}
	if st.Matches != int64(matches) {
		return fmt.Errorf("stats count %d matches, the run returned %d", st.Matches, matches)
	}
	want := float64(st.Cycles) / (freqGHz * 1e9)
	if math.Abs(st.ModeledSeconds-want) > 1e-12*want {
		return fmt.Errorf("modeled_seconds %g, want cycles/frequency = %g", st.ModeledSeconds, want)
	}
	return nil
}

// sameRun checks that two automata give identical reports and simulated
// statistics on input.
func sameRun(ctx context.Context, b *bench, x, y *ca.Automaton, input []byte) error {
	mx, sx, err := x.RunContext(ctx, input)
	b.op("verify", err)
	if err != nil {
		return err
	}
	my, sy, err := y.RunContext(ctx, input)
	b.op("verify", err)
	if err != nil {
		return err
	}
	if !slices.Equal(toReports(mx), toReports(my)) {
		return fmt.Errorf("reports differ: %d vs %d", len(mx), len(my))
	}
	if *sx != *sy {
		return fmt.Errorf("stats differ: %+v vs %+v", *sx, *sy)
	}
	return nil
}

// scanLoop is the timed phase of the scan workloads: whole rounds of one
// match operation and blockSize/chunkSize feed operations per case,
// until the run's time is spent. In a traced run odd rounds carry a
// flight-recorder trace on every call and repeat the operations of the
// plain round before them, and the loop reports how much slower those
// rounds were. The timed set-ups after the first are spread evenly over
// the phase, between round pairs, so setup_s samples the host over the
// whole run as scan_mbps does, and not over a few seconds of it.
type scanLoop struct {
	ops           []opSample
	plain, traced []float64 // round busy times, seconds
}

func (l *scanLoop) run(ctx context.Context, b *bench, sp *scanSpec, cases []*scanCase) error {
	defer func() {
		for _, c := range cases {
			for i, s := range c.streams {
				if s != nil {
					s.Close()
					c.streams[i] = nil
				}
			}
		}
	}()
	period := time.Duration(b.seconds * float64(time.Second))
	start := time.Now()
	j := 1 // the next timed set-up
	setupDue := func() error {
		if _, err := sp.timedSetup(b, nil, j); err != nil {
			return err
		}
		j++
		settle()
		return nil
	}
	settle()
	for r := 0; time.Since(start) < period; r++ {
		if r%2 == 0 && j < sp.setupReps && time.Since(start) >= period*time.Duration(j)/time.Duration(sp.setupReps) {
			if err := setupDue(); err != nil {
				return err
			}
		}
		traced := b.trace && r%2 == 1
		var busy time.Duration
		for i, c := range cases {
			d, err := l.round(ctx, b, i, c, r, traced)
			if err != nil {
				return err
			}
			busy += d
		}
		if traced {
			l.traced = append(l.traced, busy.Seconds())
		} else {
			l.plain = append(l.plain, busy.Seconds())
		}
	}
	// A phase too short to hold every set-up runs the rest after it.
	for j < sp.setupReps {
		if err := setupDue(); err != nil {
			return err
		}
	}
	b.set("setup_s", "s", median(sp.setupSecs))
	return nil
}

// timed records one operation of a plain round.
func (l *scanLoop) timed(traced bool, group int, kind string, d time.Duration, n int) {
	if !traced {
		l.ops = append(l.ops, opSample{kind: kind, ms: ms(d), bytes: n, group: group})
	}
}

func opCtx(ctx context.Context, traced bool) context.Context {
	if !traced {
		return ctx
	}
	return telemetry.WithReqTrace(ctx, telemetry.NewReqTrace("perfbench"))
}

// round runs one case's operations of round r — one match of a block
// and a block's worth of feeds — and returns the time they took. Rounds
// 2i and 2i+1 scan the same block, and feed the same chunks on streams
// of their own.
func (l *scanLoop) round(ctx context.Context, b *bench, ci int, c *scanCase, r int, traced bool) (time.Duration, error) {
	k := r / 2 % len(c.blocks)
	t0 := time.Now()
	got, _, err := c.a.RunContext(opCtx(ctx, traced), c.blocks[k])
	busy := time.Since(t0)
	b.op("match", err)
	if err != nil {
		return 0, fmt.Errorf("%s match: %w", c.label(), err)
	}
	l.timed(traced, ci, "match", busy, blockSize)
	if !slices.Equal(toReports(got), c.blockWant[k]) {
		b.incorrect(fmt.Errorf("%s block %d: reports differ from the verified run", c.label(), k))
	}
	slot := r % 2
	for i := 0; i < blockSize/chunkSize; i++ {
		if c.streams[slot] == nil || c.next[slot] == len(c.chunks) {
			if c.streams[slot] != nil {
				c.streams[slot].Close()
			}
			s, err := c.a.StreamContext(ctx)
			b.op("stream-open", err)
			if err != nil {
				return 0, fmt.Errorf("%s open stream: %w", c.label(), err)
			}
			c.streams[slot], c.next[slot] = s, 0
		}
		n := c.next[slot]
		t0 := time.Now()
		got, err := c.streams[slot].FeedContext(opCtx(ctx, traced), c.chunks[n])
		d := time.Since(t0)
		b.op("feed", err)
		if err != nil {
			return 0, fmt.Errorf("%s feed: %w", c.label(), err)
		}
		l.timed(traced, ci, "feed", d, chunkSize)
		busy += d
		if !slices.Equal(toReports(got), c.chunkWant[n]) {
			b.incorrect(fmt.Errorf("%s chunk %d: reports differ from the verified stream", c.label(), n))
		}
		c.next[slot]++
	}
	return busy, nil
}

// report sets the end-to-end metrics of a scan workload: throughput as
// the geometric mean over cases of bytes per second of operation time,
// operations per second of operation time, and latency percentiles.
func (l *scanLoop) report(b *bench, cases []*scanCase) {
	bytes := make([]float64, len(cases))
	busy := make([]float64, len(cases))
	total := 0.0
	for _, o := range l.ops {
		bytes[o.group] += float64(o.bytes)
		busy[o.group] += o.ms / 1e3
		total += o.ms / 1e3
	}
	var rates []float64
	for i := range cases {
		rates = append(rates, bytes[i]/busy[i]/1e6)
	}
	match, feed := latencies(l.ops, "match"), latencies(l.ops, "feed")
	b.set("scan_mbps", "MB/s", geomean(rates))
	b.set("serve_rps", "1/s", float64(len(l.ops))/total)
	b.set("match_p95_ms", "ms", tail(match, 0.95))
	b.set("feed_p95_ms", "ms", tail(feed, 0.95))
	fmt.Printf("tail p99 (not bounded) match=%.4g ms feed=%.4g ms\n", tail(match, 0.99), tail(feed, 0.99))
	b.set("match_p50_ms", "ms", quantile(match, 0.5))
	b.set("feed_p50_ms", "ms", quantile(feed, 0.5))
	fmt.Printf("samples match=%d feed=%d\n", len(match), len(feed))
}

// overheadPct is how much slower the traced rounds ran than the plain
// ones, in percent of the plain rounds' median.
func (l *scanLoop) overheadPct() float64 {
	return 100 * (median(l.traced)/median(l.plain) - 1)
}

func runScan(ctx context.Context, b *bench, sp *scanSpec) error {
	sets := sp.sets(b.seed)
	if _, err := sp.setup(b, sets); err != nil { // warm-up
		return err
	}
	cases, err := sp.timedSetup(b, sets, 0)
	if err != nil {
		return err
	}
	if err := verify(ctx, b, cases); err != nil {
		return err
	}
	if b.trace {
		if err := layerProbe(ctx, b, sets, cases); err != nil {
			return err
		}
		if err := serveProbe(ctx, b, cases[0]); err != nil {
			return err
		}
	}
	var l scanLoop
	if err := l.run(ctx, b, sp, cases); err != nil {
		return err
	}
	if b.trace {
		b.set("bench.trace_overhead_pct", "%", l.overheadPct())
		return nil
	}
	l.report(b, cases)
	b.set("peak_rss_mb", "MiB", peakRSSMB())
	return nil
}

// runScanQuiet: a few hundred exact signatures whose first bytes never
// occur in the benign text, so the automaton idles at its always-active
// fixed point; the kernel's per-partition sweep is nearly all the work.
func runScanQuiet(ctx context.Context, b *bench) error {
	return runScan(ctx, b, &scanSpec{
		sets: func(s int64) []*ruleSet {
			return []*ruleSet{genClamAV(s, 400, 512<<10, 16<<10)}
		},
		designs:   []ca.Design{ca.Performance},
		setupReps: 31,
	})
}

// runPaperEval: the paper's two design points on four Table-1-shaped
// rule sets, each compiled for CA_P and CA_S, round-tripped through
// Save/Load and scanned.
func runPaperEval(ctx context.Context, b *bench) error {
	return runScan(ctx, b, &scanSpec{
		sets: func(s int64) []*ruleSet {
			return []*ruleSet{
				genSnort(s, 300, 32<<10),
				genBrill(s+1, 80, 32<<10),
				genLevenshtein(s+2, 12, 2, 32<<10),
				genProtomata(s+3, 150, 32<<10),
			}
		},
		designs:   []ca.Design{ca.Performance, ca.Space},
		roundTrip: true,
		setupReps: 13,
	})
}
