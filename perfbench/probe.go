package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"cacheautomaton/internal/server"
	"cacheautomaton/internal/telemetry"
)

// probePairs is how many requests the serving probe sends the same
// payload through the router, to a node directly and to the node's
// Server in process.
const probePairs = 120

// serveProbe starts the serving rig for a scan workload's first case
// and probes it.
func serveProbe(ctx context.Context, b *bench, c *scanCase) error {
	dir, err := os.MkdirTemp(b.work, "probe-")
	if err != nil {
		return err
	}
	var req server.CompileRequest
	switch c.set.Kind {
	case kindExact:
		req = server.CompileRequest{Format: "clamav", Text: c.set.Text}
	case kindRegex:
		req = server.CompileRequest{Format: "regex", Patterns: c.set.Pats}
	default:
		return fmt.Errorf("%s: cad has no front end for %s rules", c.label(), c.set.Name)
	}
	g, err := startRig(ctx, dir, c.set.Name, req, 1)
	b.op("setup", err)
	if err != nil {
		return err
	}
	defer g.stop()
	return probeRig(ctx, b, g, c.set.Name, c.blocks, c.blockWant, c.chunks)
}

// probeRig measures the serving layers one request at a time: the
// router hop (router latency minus node latency for the same request),
// node HTTP (node latency minus the in-process Server.Match), the
// in-process match and feed, WAL and checkpoint bytes per feed, Go
// allocation and GC per request, and the medians of the nodes'
// flight-recorder spans. Every reply must carry the verified reports
// of its payload (want).
func probeRig(ctx context.Context, b *bench, g *rig, name string, payloads [][]byte, want [][]report, chunks [][]byte) error {
	node := g.nodes[0]
	var hop, nodeHTTP, inproc []float64
	var before, after runtime.MemStats
	settle()
	runtime.ReadMemStats(&before)
	requests := 0
	for i := 0; i < probePairs; i++ {
		p := i % len(payloads)
		req := matchRequest(name, payloads[p])
		body := mustJSON(req)
		var viaRouter, viaNode server.MatchResponse
		tr, err := g.do(ctx, "POST", g.url+"/match", body, &viaRouter)
		b.op("probe", err)
		if err != nil {
			return err
		}
		tn, err := g.do(ctx, "POST", node.URL+"/match", body, &viaNode)
		b.op("probe", err)
		if err != nil {
			return err
		}
		t0 := time.Now()
		inProc, err := node.Srv.Match(ctx, req)
		ti := time.Since(t0)
		b.op("probe", err)
		if err != nil {
			return err
		}
		for _, got := range []*server.MatchResponse{&viaRouter, &viaNode, inProc} {
			if !slices.Equal(wireReports(got.Matches), want[p]) {
				b.incorrect(fmt.Errorf("probe payload %d: reports differ from the verified ones", p))
			}
		}
		requests += 3
		hop = append(hop, ms(tr-tn))
		nodeHTTP = append(nodeHTTP, ms(tn-ti))
		inproc = append(inproc, ms(ti))
	}
	runtime.ReadMemStats(&after)
	b.set("cluster.router_hop_ms", "ms", median(hop))
	b.set("server.http_ms", "ms", median(nodeHTTP))
	b.set("server.match_ms", "ms", median(inproc))
	b.set("go.alloc_kb_per_req", "KiB", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(requests))
	b.set("go.gc_per_1k_req", "count", 1000*float64(after.NumGC-before.NumGC)/float64(requests))

	// In-process feeds on the node, with the WAL writing a checkpoint
	// per feed.
	info, err := node.Srv.OpenSession(ctx, server.OpenSessionRequest{Ruleset: name})
	b.op("probe", err)
	if err != nil {
		return err
	}
	walBefore := dirBytes(g, 0)
	var feed []float64
	n := min(len(chunks), 64)
	for _, ch := range chunks[:n] {
		t0 := time.Now()
		_, err := node.Srv.Feed(ctx, info.Session, feedRequest(ch, false))
		feed = append(feed, ms(time.Since(t0)))
		b.op("probe", err)
		if err != nil {
			return err
		}
	}
	b.set("server.feed_ms", "ms", median(feed))
	b.set("server.wal_kb_per_feed", "KiB", float64(dirBytes(g, 0)-walBefore)/1024/float64(n))
	err = node.Srv.CloseSession(ctx, info.Session)
	b.op("probe", err)
	if err != nil {
		return err
	}

	// Feeds over the node's HTTP API asking for the checkpoint the
	// router ships with every forwarded feed.
	var sess server.SessionInfo
	_, err = g.do(ctx, "POST", node.URL+"/sessions", mustJSON(server.OpenSessionRequest{Ruleset: name}), &sess)
	b.op("probe", err)
	if err != nil {
		return err
	}
	var ckpt []float64
	for _, ch := range chunks[:min(len(chunks), 16)] {
		var fr server.FeedResponse
		_, err := g.do(ctx, "POST", node.URL+"/sessions/"+sess.Session+"/feed", mustJSON(feedRequest(ch, true)), &fr)
		b.op("probe", err)
		if err != nil {
			return err
		}
		ckpt = append(ckpt, float64(len(fr.SnapshotB64))/1024)
	}
	b.set("cluster.checkpoint_kb_per_feed", "KiB", median(ckpt))
	_, err = g.do(ctx, "DELETE", node.URL+"/sessions/"+sess.Session, nil, nil)
	b.op("probe", err)
	if err != nil {
		return err
	}
	return recorderSpans(ctx, b, g)
}

// recorderSpans reads both nodes' flight recorders and reports the
// median queue, lease, run and WAL spans, the median wall time no span
// covers, and the machines the recorded leases built.
func recorderSpans(ctx context.Context, b *bench, g *rig) error {
	stages := map[string][]float64{}
	var unspanned []float64
	builds := 0.0
	for _, n := range g.nodes {
		var snap telemetry.RingSnapshot
		_, err := g.do(ctx, "GET", n.URL+"/debug/requests", nil, &snap)
		b.op("probe", err)
		if err != nil {
			return err
		}
		for _, rep := range snap.Recent {
			if rep.Op != "match" && rep.Op != "sessions.feed" {
				continue
			}
			covered := 0.0
			for _, st := range rep.Stages {
				stages[st.Name] = append(stages[st.Name], st.DurationMS)
				covered += st.DurationMS
				for _, a := range st.Attrs {
					if st.Name == "lease" && a.Key == "built" {
						builds += float64(a.Value)
					}
				}
			}
			unspanned = append(unspanned, rep.DurationMS-covered)
		}
	}
	for _, s := range []string{"queue", "lease", "run", "wal"} {
		v := median(stages[s])
		if math.IsNaN(v) {
			return fmt.Errorf("flight recorder holds no %q span", s)
		}
		b.set("server."+s+"_ms", "ms", v)
	}
	b.set("server.unspanned_ms", "ms", median(unspanned))
	b.set("machine.builds", "count", builds)
	return nil
}

// dirBytes totals the file sizes under node i's WAL directory.
func dirBytes(g *rig, i int) int64 {
	var total int64
	_ = filepath.WalkDir(g.walDirs[i], func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				total += fi.Size()
			}
		}
		return nil
	})
	return total
}
