package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"sybilwild/internal/detector"
	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
	"sybilwild/internal/stream"
)

// liveRate is the live workload's aggregate open-loop rate in events
// per second, about a third of what flood sustains on two cores: far
// enough below saturation that age measures flush timers, coalescing
// and wake-ups rather than a growing backlog.
const liveRate = 200_000

// graphAheadTolerance is how many accounts per pass the workers' flag
// set may differ on from the causal replay before the run fails. Under
// WithGraphReconstruction a batch's edges are added before any of its
// events is judged and shards trail the dispatcher by up to eight
// batches, so a request can be judged against friendships accepted
// after it; an account near the clustering-coefficient cut then flips
// now and then (seen on a few seeds, one account at a time). Anything
// beyond this bound, and any flag by the wrong partition or by two,
// fails the run.
const graphAheadTolerance = 2

// blockedSpan is the shortest Publish call the trace records as its
// own span: calls that seal a batch or wait for the publish window.
// Every call's time is counted either way.
const blockedSpan = 20 * time.Microsecond

// round is what one round of a workload measured: one timed pass
// (backfill: several), then the failover leg.
type round struct {
	traced    bool
	passes    []*pass
	handoffMs []float64
	failed    int
	layer     map[string]float64 // per-layer values, traced rounds only
	spans     []span
}

// pass is one timed window: the campaign carried through the chain
// once.
type pass struct {
	windowS   float64 // timed window
	startS    float64 // broker and worker start
	peakRSSMB float64
	ages      []float64 // ms, one per owned event delivery
	flagLat   []float64 // ms, one per flag
}

// produced is one producer's account of a publishing pass.
type produced struct {
	blockedNs int64
	failed    int
	err       error
}

// publish runs one producer over its share of the log and closes its
// epoch. Flood publishes as fast as the publish window allows (closed
// loop). With rate > 0 log event i is released at t0 + i/rate (open
// loop) whatever the system does. pubAt records when each event's
// Publish call began.
func (b *bench) publish(p int, share []int32, pub *stream.Publisher, t0 int64, rate int64, traced bool, pubAt []int64, tb *spanBuf, parent int64) produced {
	var out produced
	start := now()
	me := b.tr.id()
	for k, li := range share {
		if rate > 0 {
			due := t0 + int64(li)*int64(time.Second)/rate
			if d := due - now(); d > 0 {
				time.Sleep(time.Duration(d))
			}
		}
		t1 := now()
		pubAt[li] = t1
		if err := pub.Publish(b.c.events[li]); err != nil {
			out.err = fmt.Errorf("producer %d: publish: %w", p, err)
			out.failed = len(share) - k
			pub.Abort()
			return out
		}
		if traced {
			t2 := now()
			out.blockedNs += t2 - t1
			if time.Duration(t2-t1) >= blockedSpan {
				tb.add(0, me, "publish", t1, t2)
			}
		}
	}
	t1 := now()
	err := pub.Close()
	t2 := now()
	out.blockedNs += t2 - t1
	tb.add(0, me, "publish", t1, t2)
	tb.add(me, parent, "producer", start, t2)
	if err != nil {
		out.err = fmt.Errorf("producer %d: close: %w", p, err)
	}
	return out
}

// publishAll publishes the campaign through one producer per share of
// the log (log indices, in log order), connected to addr, and waits for
// them. It returns the producers' total time inside Publish/Close and
// their batch count.
func (b *bench) publishAll(addr string, shares [][]int32, t0 int64, rate int64, traced bool, pubAt []int64, parent int64) (blockedNs int64, batches uint64, failed int, err error) {
	pubs := make([]*stream.Publisher, len(shares))
	for p := range pubs {
		pub, err := stream.NewPublisher(addr, fmt.Sprintf("p%d", p), len(shares))
		if err != nil {
			for _, q := range pubs[:p] {
				q.Abort()
			}
			return 0, 0, len(b.c.events), err
		}
		pubs[p] = pub
	}
	var wg sync.WaitGroup
	res := make([]produced, len(shares))
	for p := range pubs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			res[p] = b.publish(p, shares[p], pubs[p], t0, rate, traced, pubAt, b.tr.buf(), parent)
		}(p)
	}
	wg.Wait()
	var errs []error
	for p, r := range res {
		blockedNs += r.blockedNs
		batches += pubs[p].Stats().Batches
		failed += r.failed
		errs = append(errs, r.err)
	}
	return blockedNs, batches, failed, errors.Join(errs...)
}

// chainRound runs flood (rate 0) or live (rate > 0) once: two producers
// publish the campaign into a spooled root broker, a spooled relay edge
// adopts it, and two partitioned workers judge it at the edge.
func (b *bench) chainRound(rate int64, traced bool) (*round, error) {
	b.tr.on = traced
	r := &round{traced: traced, layer: map[string]float64{}}
	p := &pass{}
	r.passes = []*pass{p}
	n := uint64(len(b.c.events))
	dir, err := os.MkdirTemp(b.dir, "round-")
	if err != nil {
		return nil, err
	}
	var cleanup stack
	defer cleanup.run()
	cleanup.push(func() { os.RemoveAll(dir) })

	tStart := now()
	rootSp, err := spool.Open(filepath.Join(dir, "root"))
	if err != nil {
		return nil, err
	}
	cleanup.push(func() { rootSp.Close() })
	root, err := stream.NewServer("127.0.0.1:0", stream.WithSpool(rootSp))
	if err != nil {
		return nil, err
	}
	cleanup.push(func() { root.Abort() })
	edgeSp, err := spool.Open(filepath.Join(dir, "edge"))
	if err != nil {
		return nil, err
	}
	cleanup.push(func() { edgeSp.Close() })
	edge, err := stream.NewRelay("127.0.0.1:0", root.Addr(), stream.WithRelayServer(stream.WithSpool(edgeSp)))
	if err != nil {
		return nil, err
	}
	cleanup.push(func() { edge.Abort() })
	ws, err := b.startWorkers(edge.Addr(), &cleanup)
	if err != nil {
		return nil, err
	}
	p.startS = float64(now()-tStart) / 1e9

	pubAt := make([]int64, n)
	var ms0 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&ms0)
	}
	rb := b.tr.buf()
	roundID := b.tr.id()
	var smp *sampler
	if traced {
		smp = startSampler(n, root, edge.Server(), edge.Server())
		defer smp.end()
	}
	rss := startRSS()
	t0 := now()
	wwg := b.runWorkers(ws, roundID)
	blocked, batches, failed, perr := b.publishAll(root.Addr(), b.c.byProducer[:], t0, rate, traced, pubAt, roundID)
	r.failed = failed
	if perr != nil {
		return r, perr
	}
	select {
	case <-root.IngestDone():
	case <-time.After(time.Minute):
		return r, errors.New("root: producers closed but ingest never completed")
	}
	closed := make(chan error, 1)
	go func() { closed <- root.Close() }()
	wwg.Wait()
	tEnd := ws[0].done
	for _, w := range ws[1:] {
		tEnd = max(tEnd, w.done)
	}
	p.peakRSSMB = rss.end()
	p.windowS = float64(tEnd-t0) / 1e9
	rb.add(roundID, 0, "round", t0, tEnd)
	if traced {
		smp.end()
		smp.record(r, t0)
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		r.layer["go.alloc_bytes_per_event"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n)
		r.layer["publish.blocked_ms"] = float64(blocked) / 1e6
		r.layer["publish.batches"] = float64(batches)
		r.layer["publish.late_p99_ms"] = lateP99(pubAt, t0, rate)
	}

	// Teardown is outside the window: the root drains the relay and
	// sends eof, the relay passes eof on and closes its own server.
	if err := <-closed; err != nil {
		return r, fmt.Errorf("root close: %w", err)
	}
	if err := edge.Wait(); err != nil {
		return r, fmt.Errorf("relay: %w", err)
	}
	edge.Close()
	rootSt, edgeSt := root.Stats(), edge.Server().Stats()
	if rootSt.Broadcast != n || root.HeadSeq() != n {
		return r, fmt.Errorf("root sequenced %d events, campaign has %d", rootSt.Broadcast, n)
	}
	if edgeSt.Adopted != n {
		return r, fmt.Errorf("edge adopted %d events, root sequenced %d", edgeSt.Adopted, n)
	}
	if rootSt.Evicted != 0 || edgeSt.Evicted != 0 {
		return r, fmt.Errorf("sessions evicted: root %d, edge %d", rootSt.Evicted, edgeSt.Evicted)
	}
	if traced {
		kev := float64(n) / 1000
		r.layer["root.encodes_per_kevent"] = float64(rootSt.Encodes) / kev
		r.layer["edge.encodes_per_kevent"] = float64(edgeSt.Encodes) / kev
		r.layer["relay.frames_per_kevent"] = float64(edge.Stats().Frames) / kev
		st := rootSp.Stats()
		r.layer["spool.bytes_per_event"] = float64(st.Bytes) / float64(n)
		r.layer["spool.segments"] = float64(st.Segments)
	}

	ot := now()
	seqd, err := readSequenced(rootSp, int(n))
	if err != nil {
		return r, err
	}
	idx, err := logIndices(b.c, seqd)
	if err != nil {
		return r, err
	}
	ot1 := now()
	want := causalFlags(seqd, b.c.rule)
	ot2 := now()
	oid := b.tr.id()
	rb.add(0, oid, "oracle.readback", ot, ot1)
	rb.add(0, oid, "oracle.replay", ot1, ot2)
	rb.add(oid, 0, "oracle", ot, ot2)
	if traced {
		r.layer["reference.events_per_s"] = float64(n) / (float64(ot2-ot1) / 1e9)
	}
	// Closed loop: the whole campaign is due at once, at t0.
	due := func(uint64) int64 { return t0 }
	if rate > 0 {
		due = func(seq uint64) int64 { return t0 + int64(idx[seq-1])*int64(time.Second)/rate }
	}
	if err := b.judge(r, p, ws, seqd, want, due, rate == 0); err != nil {
		return r, err
	}
	if err := b.failover(r, rootSp, ws); err != nil {
		return r, err
	}
	r.spans = b.tr.take()
	return r, nil
}

// lateP99 is the 99th percentile of how late the generator ran: the
// Publish call's start minus the event's due time (t0 for a closed
// loop, where the whole campaign is due at once).
func lateP99(pubAt []int64, t0 int64, rate int64) float64 {
	late := make([]float64, len(pubAt))
	for i, t := range pubAt {
		due := t0
		if rate > 0 {
			due = t0 + int64(i)*int64(time.Second)/rate
		}
		late[i] = float64(t-due) / 1e6
	}
	return quantile(late, 0.99)
}

// startWorkers builds and dials one worker per partition.
func (b *bench) startWorkers(addr string, cleanup *stack) ([]*worker, error) {
	ws := make([]*worker, parts)
	for part := range ws {
		w := newWorker(part, b.c.rule, b.tr)
		if err := w.dial(addr); err != nil {
			return nil, err
		}
		cleanup.push(func() { w.c.Close(); w.p.Close() })
		ws[part] = w
	}
	return ws, nil
}

func (b *bench) runWorkers(ws []*worker, parent int64) *sync.WaitGroup {
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(parent)
		}(w)
	}
	return &wg
}

// judge checks the workers against the feed and the causal replay and
// derives the pass's latency samples. due gives the time each
// sequenced event was due. With fromDelivery a flag's latency counts
// from the Ingest call that carried its trigger instead: when the whole
// backlog is due at once, the time to a flag from the start would only
// say where in the log the trigger sits.
func (b *bench) judge(r *round, p *pass, ws []*worker, seqd []osn.Event, want map[osn.AccountID]oracleFlag, due func(uint64) int64, fromDelivery bool) error {
	perPart := make([][]detector.Flag, len(ws))
	var recvNs, ingestNs, closeNs int64
	var calls, events, pinned int
	var delays []float64
	for _, w := range ws {
		if err := w.checkDelivery(seqd); err != nil {
			return err
		}
		perPart[w.part] = w.p.Flags()
		prev := 0
		for _, bt := range w.batches {
			for _, s := range w.seqs[prev:bt.seqEnd] {
				if osn.Partition(seqd[s-1].Actor, parts) == w.part {
					p.ages = append(p.ages, float64(bt.call-due(s))/1e6)
				}
			}
			prev = bt.seqEnd
			ingestNs += bt.ret - bt.call
		}
		trig := triggerSeqs(seqd, want, w.hooks)
		for i, h := range w.hooks {
			s := trig[i]
			if s == 0 {
				continue
			}
			j := sort.Search(len(w.batches), func(j int) bool { return w.batches[j].lastSeq >= s })
			if j == len(w.batches) {
				return fmt.Errorf("worker %d/%d: flag for account %d has no carrying batch", w.part, parts, h.id)
			}
			from := due(s)
			if fromDelivery {
				from = w.batches[j].call
			}
			p.flagLat = append(p.flagLat, float64(h.t-from)/1e6)
			delays = append(delays, float64(h.t-w.batches[j].ret)/1e6)
		}
		recvNs += w.recvNs
		closeNs += w.closeNs
		calls += w.calls
		events += len(w.seqs)
		if w.pinned {
			pinned++
		}
	}
	rep, err := checkFlags(want, perPart, graphAheadTolerance)
	if rep.differing() > 0 {
		fmt.Fprintf(os.Stderr, "campaignbench: workers flagged %v that the causal replay did not, and missed %v (graph ran ahead)\n",
			rep.extra, rep.missing)
	}
	if err != nil {
		return err
	}
	if r.traced {
		r.layer["client.recv_wait_ms"] = float64(recvNs) / 1e6
		r.layer["client.events_per_batch"] = float64(events) / float64(max(calls, 1))
		r.layer["client.eof_cursor_pins"] = float64(pinned)
		r.layer["detector.ingest_ms"] = float64(ingestNs) / 1e6
		r.layer["detector.close_ms"] = float64(closeNs) / 1e6
		r.layer["detector.flag_delay_p50_ms"] = quantile(delays, 0.5)
		r.layer["detector.flags"] = float64(len(want))
		r.layer["detector.flag_at_mismatch"] = float64(rep.atMismatch)
		r.layer["detector.flag_set_mismatch"] = float64(rep.differing())
	}
	return nil
}
