package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
	"unicode/utf8"

	ca "cacheautomaton"
	"cacheautomaton/internal/arch"
	"cacheautomaton/internal/cluster"
	"cacheautomaton/internal/server"
	"cacheautomaton/internal/telemetry"
)

// rig is cad's cluster mode in process: the router in front of two
// nodes, each with its WAL attached and cad's defaults otherwise, all
// reached over HTTP loopback.
type rig struct {
	nodes  []*cluster.LocalNode
	router *cluster.Router
	front  *http.Server
	url    string
	client *http.Client
	served chan struct{}
	// walDirs holds each node's WAL directory.
	walDirs []string
}

// startRig starts the nodes and the router, joins the nodes through the
// router's API and places the rule set; it returns once the rule set is
// ready to serve on both replicas.
func startRig(ctx context.Context, dir, name string, req server.CompileRequest, clients int) (*rig, error) {
	g := &rig{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients + 2}}}
	if err := g.start(ctx, dir, name, req); err != nil {
		g.stop()
		return nil, err
	}
	return g, nil
}

func (g *rig) start(ctx context.Context, dir, name string, req server.CompileRequest) error {
	for i := 0; i < 2; i++ {
		n, err := cluster.StartLocalNode(fmt.Sprintf("n%d", i), server.Config{Registry: telemetry.NewRegistry()})
		if err != nil {
			return err
		}
		g.nodes = append(g.nodes, n)
		wal := filepath.Join(dir, n.ID)
		if _, err := n.Srv.AttachWAL(wal); err != nil {
			return err
		}
		g.walDirs = append(g.walDirs, wal)
	}
	g.router = cluster.NewRouter(cluster.Config{Registry: telemetry.NewRegistry()})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	g.url = "http://" + lis.Addr().String()
	g.front = &http.Server{Handler: g.router.Handler()}
	g.served = make(chan struct{})
	go func() {
		defer close(g.served)
		_ = g.front.Serve(lis)
	}()
	for _, n := range g.nodes {
		join, _ := json.Marshal(map[string]string{"id": n.ID, "url": n.URL})
		if _, err := g.do(ctx, "POST", g.url+"/cluster/join", join, nil); err != nil {
			return err
		}
	}
	body, _ := json.Marshal(req)
	if _, err := g.do(ctx, "PUT", g.url+"/rulesets/"+name, body, nil); err != nil {
		return err
	}
	return nil
}

// stop shuts the router and the nodes down and waits for them.
func (g *rig) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if g.front != nil {
		_ = g.front.Shutdown(ctx)
		<-g.served
	}
	if g.router != nil {
		_ = g.router.Shutdown(ctx)
	}
	for _, n := range g.nodes {
		_ = n.Stop(ctx)
	}
	g.client.CloseIdleConnections()
}

// do sends one JSON request and decodes the reply into out. It returns
// the time from sending the request to reading the reply's last byte.
func (g *rig) do(ctx context.Context, method, url string, body []byte, out any) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if resp.StatusCode/100 != 2 {
		return d, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return d, fmt.Errorf("%s %s: %w", method, url, err)
		}
	}
	return d, nil
}

func wireReports(ms []server.WireMatch) []report {
	out := make([]report, len(ms))
	for i, m := range ms {
		out[i] = report{Off: m.Offset, Pat: m.Pattern}
	}
	return out
}

func matchRequest(name string, p []byte) server.MatchRequest {
	if utf8.Valid(p) {
		return server.MatchRequest{Ruleset: name, Input: string(p)}
	}
	return server.MatchRequest{Ruleset: name, InputB64: base64.StdEncoding.EncodeToString(p)}
}

func feedRequest(p []byte, checkpoint bool) server.FeedRequest {
	if utf8.Valid(p) {
		return server.FeedRequest{Chunk: string(p), Checkpoint: checkpoint}
	}
	return server.FeedRequest{ChunkB64: base64.StdEncoding.EncodeToString(p), Checkpoint: checkpoint}
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return data
}

// serveData is the traffic of serve-mixed: a pool of one-shot payloads
// and one session's chunks, with the request bodies encoded ahead of
// time and the verified reports of each.
type serveData struct {
	name      string
	rs        *ruleSet
	or        *oracle
	payloads  [][]byte
	planted   [][]report
	matchBody [][]byte
	matchWant [][]report
	chunks    [][]byte
	feedBody  [][]byte
	feedWant  [][]report
}

const (
	// The load phase runs in serveSlices slices, with setupsPerSlice
	// timed cluster set-ups (about 5 ms each) before each one. setup_s
	// is the median of those and of the serving cluster's own start-up.
	serveSlices    = 30
	setupsPerSlice = 3
	serveChunks    = 16
	serveChunk     = 4 << 10
	// matchesPerFeed is how many one-shot /match requests a round sends
	// before each feed; a round sends every payload once.
	matchesPerFeed = 2
	servePayloads  = matchesPerFeed * serveChunks
)

func newServeData(seed int64) (*serveData, error) {
	rs := genServe(seed, 12, 1<<20)
	or, err := newOracle(rs, 2048)
	if err != nil {
		return nil, err
	}
	d := &serveData{name: "serve", rs: rs, or: or}
	// Payload sizes come from the shape generator, so every seed serves
	// the same size mix; the seed picks their contents.
	r, sh := rand.New(rand.NewSource(seed+17)), shapes("serve-payloads")
	for i := 0; i < servePayloads; i++ {
		n := int(256 << uint(sh.Intn(9))) // 256 B .. 64 KiB, log-uniform
		n += sh.Intn(n)
		n = min(n, 64<<10)
		lo := r.Intn(len(rs.Input) - n)
		d.payloads = append(d.payloads, rs.Input[lo:lo+n])
		d.planted = append(d.planted, plantedIn(rs.Planted, int64(lo), int64(lo+n)))
		d.matchBody = append(d.matchBody, mustJSON(matchRequest(d.name, rs.Input[lo:lo+n])))
	}
	lo := r.Intn(len(rs.Input) - serveChunks*serveChunk)
	d.chunks = cut(rs.Input[lo:lo+serveChunks*serveChunk], serveChunk)
	for _, ch := range d.chunks {
		d.feedBody = append(d.feedBody, mustJSON(feedRequest(ch, false)))
	}
	return d, nil
}

// verify checks every payload's /match reply through the router against
// the oracle, and one session's feeds against one-shot /match on their
// concatenation; the verified reports are what the timed requests must
// reproduce.
func (d *serveData) verify(ctx context.Context, b *bench, g *rig) error {
	freq := arch.NewDesign(arch.PerfOpt).OperatingFrequencyGHz(arch.TimingOptions{})
	check := func(what string, p []byte, planted []report) ([]report, error) {
		var resp server.MatchResponse
		_, err := g.do(ctx, "POST", g.url+"/match", mustJSON(matchRequest(d.name, p)), &resp)
		b.op("verify", err)
		if err != nil {
			return nil, err
		}
		got := wireReports(resp.Matches)
		if err := d.or.check(p, got, planted); err != nil {
			b.incorrect(fmt.Errorf("/match %s: %w", what, err))
		}
		st := &ca.Stats{Cycles: resp.Stats.Cycles, Matches: resp.Stats.Matches, ModeledSeconds: resp.Stats.ModeledSeconds}
		if err := checkStats(st, len(p), len(got), freq); err != nil {
			b.incorrect(fmt.Errorf("/match %s: %w", what, err))
		}
		return got, nil
	}
	for i, p := range d.payloads {
		got, err := check(fmt.Sprintf("payload %d", i), p, d.planted[i])
		if err != nil {
			return err
		}
		d.matchWant = append(d.matchWant, got)
	}
	id, err := openSession(ctx, b, g, d.name)
	if err != nil {
		return err
	}
	var all []report
	for i, body := range d.feedBody {
		var resp server.FeedResponse
		_, err := g.do(ctx, "POST", g.url+"/sessions/"+id+"/feed", body, &resp)
		b.op("verify", err)
		if err != nil {
			return err
		}
		got := wireReports(resp.Matches)
		d.feedWant = append(d.feedWant, got)
		all = append(all, got...)
		if resp.Pos != int64((i+1)*serveChunk) {
			b.incorrect(fmt.Errorf("feed %d: session at %d, want %d", i, resp.Pos, (i+1)*serveChunk))
		}
	}
	if err := closeSession(ctx, b, g, id); err != nil {
		return err
	}
	whole := bytes.Join(d.chunks, nil)
	one, err := check("of the session's concatenated chunks", whole, nil)
	if err != nil {
		return err
	}
	if !slices.Equal(dedupe(all), dedupe(one)) {
		b.incorrect(fmt.Errorf("session feeds report %d matches, one-shot /match on their concatenation %d: %v",
			len(all), len(one), sameReports(one, all)))
	}
	return nil
}

func openSession(ctx context.Context, b *bench, g *rig, name string) (string, error) {
	var info server.SessionInfo
	_, err := g.do(ctx, "POST", g.url+"/sessions", mustJSON(server.OpenSessionRequest{Ruleset: name}), &info)
	b.op("open", err)
	return info.Session, err
}

func closeSession(ctx context.Context, b *bench, g *rig, id string) error {
	_, err := g.do(ctx, "DELETE", g.url+"/sessions/"+id, nil, nil)
	b.op("close", err)
	return err
}

// load is the closed-loop client side of serve-mixed.
type load struct {
	start         time.Time
	rounds        []int // each client's next round
	mu            sync.Mutex
	ops           []opSample // completed requests of plain rounds
	plain, traced []float64  // round wall times, seconds
}

// slice runs every client until the deadline.
func (l *load) slice(ctx context.Context, b *bench, g *rig, d *serveData, deadline time.Time) error {
	errs := make([]error, len(l.rounds))
	var wg sync.WaitGroup
	for c := range l.rounds {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = l.client(ctx, b, g, d, c, deadline)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// client runs whole rounds until the deadline: open a session, then
// serveChunks times matchesPerFeed one-shot /match requests and a feed,
// then close. Every round of a client sends the same requests: each
// payload once, starting at a payload of the client's own, and the
// session's chunks in order. In a traced run odd rounds are timed as a
// whole only; the nodes and the router record every request in their
// flight recorders in every round.
func (l *load) client(ctx context.Context, b *bench, g *rig, d *serveData, c int, deadline time.Time) error {
	var ops []opSample
	var plain, traced []float64
	defer func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.ops = append(l.ops, ops...)
		l.plain = append(l.plain, plain...)
		l.traced = append(l.traced, traced...)
	}()
	for ; time.Now().Before(deadline); l.rounds[c]++ {
		r := l.rounds[c]
		tr := b.trace && r%2 == 1
		done := func(kind string, t time.Duration, n int) {
			if !tr {
				ops = append(ops, opSample{at: time.Since(l.start).Seconds(), kind: kind, ms: ms(t), bytes: n})
			}
		}
		t0 := time.Now()
		id, err := openSession(ctx, b, g, d.name)
		if err != nil {
			return err
		}
		done("open", time.Since(t0), 0)
		for i := 0; i < serveChunks; i++ {
			for j := 0; j < matchesPerFeed; j++ {
				p := (c*7 + i*matchesPerFeed + j) % len(d.payloads)
				var mr server.MatchResponse
				t, err := g.do(ctx, "POST", g.url+"/match", d.matchBody[p], &mr)
				b.op("match", err)
				if err != nil {
					return err
				}
				done("match", t, len(d.payloads[p]))
				if !slices.Equal(wireReports(mr.Matches), d.matchWant[p]) {
					b.incorrect(fmt.Errorf("/match payload %d: reports differ from the verified reply", p))
				}
			}
			var fr server.FeedResponse
			t, err := g.do(ctx, "POST", g.url+"/sessions/"+id+"/feed", d.feedBody[i], &fr)
			b.op("feed", err)
			if err != nil {
				return err
			}
			done("feed", t, len(d.chunks[i]))
			if !slices.Equal(wireReports(fr.Matches), d.feedWant[i]) {
				b.incorrect(fmt.Errorf("feed %d: reports differ from the verified session", i))
			}
		}
		t1 := time.Now()
		if err := closeSession(ctx, b, g, id); err != nil {
			return err
		}
		done("close", time.Since(t1), 0)
		if tr {
			traced = append(traced, time.Since(t0).Seconds())
		} else {
			plain = append(plain, time.Since(t0).Seconds())
		}
	}
	return nil
}

// report sets serve-mixed's end-to-end metrics from the plain rounds:
// latency percentiles per kind, and requests and payload bytes
// completed per second of the load slices (wall).
func (l *load) report(b *bench, wall float64) {
	sort.Slice(l.ops, func(i, j int) bool { return l.ops[i].at < l.ops[j].at })
	bytes := 0
	for _, o := range l.ops {
		bytes += o.bytes
	}
	match, feed := latencies(l.ops, "match"), latencies(l.ops, "feed")
	b.set("match_p95_ms", "ms", tail(match, 0.95))
	b.set("feed_p95_ms", "ms", tail(feed, 0.95))
	fmt.Printf("tail p99 (not bounded) match=%.4g ms feed=%.4g ms\n", tail(match, 0.99), tail(feed, 0.99))
	b.set("scan_mbps", "MB/s", float64(bytes)/wall/1e6)
	b.set("serve_rps", "1/s", float64(len(l.ops))/wall)
	b.set("match_p50_ms", "ms", quantile(match, 0.5))
	b.set("feed_p50_ms", "ms", quantile(feed, 0.5))
	fmt.Printf("samples match=%d feed=%d\n", len(match), len(feed))
}

// timeRig starts a cluster serving d's rule set after a settled GC, and
// returns it with its start-up time in seconds.
func timeRig(ctx context.Context, b *bench, d *serveData, clients int) (*rig, float64, error) {
	dir, err := os.MkdirTemp(b.work, "rig-")
	if err != nil {
		return nil, 0, err
	}
	req := server.CompileRequest{Format: "regex", Patterns: d.rs.Pats}
	settle()
	t0 := time.Now()
	g, err := startRig(ctx, dir, d.name, req, clients)
	b.op("setup", err)
	if err != nil {
		return nil, 0, fmt.Errorf("start cluster: %w", err)
	}
	return g, time.Since(t0).Seconds(), nil
}

func runServeMixed(ctx context.Context, b *bench) error {
	d, err := newServeData(b.seed)
	if err != nil {
		return err
	}
	clients := runtime.NumCPU()
	// An untimed warm-up start-up, then the cluster that serves the load.
	g, _, err := timeRig(ctx, b, d, clients)
	if err != nil {
		return err
	}
	g.stop()
	g, secs0, err := timeRig(ctx, b, d, clients)
	if err != nil {
		return err
	}
	defer g.stop()
	if err := d.verify(ctx, b, g); err != nil {
		return err
	}
	if b.trace {
		a, err := compileSet(d.rs, ca.Performance)
		b.op("compile", err)
		if err != nil {
			return err
		}
		c := &scanCase{set: d.rs, design: ca.Performance, a: a}
		if err := layerProbe(ctx, b, []*ruleSet{d.rs}, []*scanCase{c}); err != nil {
			return err
		}
		if err := probeRig(ctx, b, g, d.name, d.payloads, d.matchWant, d.chunks); err != nil {
			return err
		}
	}
	// The other timed start-ups run between slices of the load phase, so
	// setup_s samples the host over the whole run as the load figures do,
	// and not over the fraction of a second the start-ups take.
	secs := []float64{secs0}
	l := load{rounds: make([]int, clients)}
	period := time.Duration(b.seconds * float64(time.Second))
	l.start = time.Now()
	var wall time.Duration
	for k := 1; k <= serveSlices; k++ {
		for i := 0; i < setupsPerSlice; i++ {
			//cavet:ignore singleattempt each pass starts a fresh cluster; the reach to the feed RPC is the router's handler table, and no feed is sent here
			sg, s, err := timeRig(ctx, b, d, clients)
			if err != nil {
				return err
			}
			sg.stop()
			secs = append(secs, s)
		}
		settle()
		t0 := time.Now()
		if err := l.slice(ctx, b, g, d, l.start.Add(period*time.Duration(k)/serveSlices)); err != nil {
			return err
		}
		wall += time.Since(t0)
	}
	if b.trace {
		b.set("bench.trace_overhead_pct", "%", 100*(median(l.traced)/median(l.plain)-1))
		return nil
	}
	b.set("setup_s", "s", median(secs))
	l.report(b, wall.Seconds())
	b.set("peak_rss_mb", "MiB", peakRSSMB())
	return nil
}
