package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
	"sybilwild/internal/stream"
)

// prefill is backfill's set-up: the campaign published into a root
// spool, and the causal replay of the order the root sequenced.
type prefill struct {
	sp    *spool.Spool
	seqd  []osn.Event
	want  map[osn.AccountID]oracleFlag
	layer map[string]float64
	spans []span // producer and oracle spans, for traced rounds' self times
}

// prefill publishes the campaign unpaced into a spooled root, which is
// then closed; the spool stays open for the rounds. One producer
// publishes the whole log, so the root sequences it in log order and
// the spool backfill drains is the same for every run of a seed: with
// two racing producers the interleaving of their batches differs from
// run to run, and a drain's time depends on it by up to half. The
// sequenced order is read back and replayed once, since every round
// drains the same spool.
func (b *bench) prefill() (*prefill, error) {
	n := uint64(len(b.c.events))
	dir, err := os.MkdirTemp(b.dir, "prefill-")
	if err != nil {
		return nil, err
	}
	sp, err := spool.Open(dir)
	if err != nil {
		return nil, err
	}
	f := &prefill{sp: sp, layer: map[string]float64{}}
	ok := false
	defer func() {
		if !ok {
			sp.Close()
		}
	}()
	root, err := stream.NewServer("127.0.0.1:0", stream.WithSpool(sp))
	if err != nil {
		return nil, err
	}
	defer root.Abort()
	pubAt := make([]int64, n)
	var smp *sampler
	if b.trace {
		smp = startSampler(n, root, nil, root)
	}
	t0 := now()
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	blocked, batches, _, err := b.publishAll(root.Addr(), [][]int32{all}, t0, 0, b.trace, pubAt, 0)
	if err != nil {
		smp.end()
		return nil, err
	}
	<-root.IngestDone()
	done := now()
	smp.end()
	if err := root.Close(); err != nil {
		return nil, err
	}
	if got := root.HeadSeq(); got != n {
		return nil, fmt.Errorf("root sequenced %d events, campaign has %d", got, n)
	}
	if b.trace {
		f.layer["publish.blocked_ms"] = float64(blocked) / 1e6
		f.layer["publish.batches"] = float64(batches)
		f.layer["publish.late_p99_ms"] = lateP99(pubAt, t0, 0)
		// The sampler may not tick between the last event and the end
		// of ingest; by then the root has sequenced everything.
		at := done
		if smp.sequencedAt > 0 {
			at = smp.sequencedAt
		}
		f.layer["root.sequenced_s"] = float64(at-t0) / 1e9
		f.layer["root.encodes_per_kevent"] = float64(root.Stats().Encodes) / (float64(n) / 1000)
	}
	ot := now()
	f.seqd, err = readSequenced(sp, int(n))
	if err != nil {
		return nil, err
	}
	if _, err := logIndices(b.c, f.seqd); err != nil {
		return nil, err
	}
	t1 := now()
	f.want = causalFlags(f.seqd, b.c.rule)
	t2 := now()
	f.layer["reference.events_per_s"] = float64(n) / (float64(t2-t1) / 1e9)
	tb := b.tr.buf()
	oid := b.tr.id()
	tb.add(0, oid, "oracle.readback", ot, t1)
	tb.add(0, oid, "oracle.replay", t1, t2)
	tb.add(oid, 0, "oracle", ot, t2)
	f.spans = b.tr.take()
	ok = true
	return f, nil
}

// backfillRound times one cold start per prefilled spool (one per
// set-up repetition): two partitioned workers dial sequence 1 on a
// fresh root over the spool, and the root is closed as soon as both are
// connected, so it drains them from disk and then sends eof. The last
// drain's workers hand over in the failover leg.
func (b *bench) backfillRound(traced bool) (*round, error) {
	b.tr.on = traced
	r := &round{traced: traced, layer: map[string]float64{}}
	var ws []*worker
	var f *prefill
	for _, f = range b.fills {
		// Each drain starts from a collected heap, like each round.
		runtime.GC()
		debug.FreeOSMemory()
		p, drained, err := b.drain(r, f)
		if err != nil {
			return r, err
		}
		r.passes = append(r.passes, p)
		ws = drained
	}
	if err := b.failover(r, f.sp, ws); err != nil {
		return r, err
	}
	r.spans = b.tr.take()
	if traced {
		// Producers and the oracle run once, in set-up, on this path.
		r.spans = append(r.spans, f.spans...)
	}
	return r, nil
}

// drain is one timed cold start of backfillRound over f's spool.
func (b *bench) drain(r *round, f *prefill) (*pass, []*worker, error) {
	n := uint64(len(b.c.events))
	p := &pass{}
	var cleanup stack
	defer cleanup.run()

	tStart := now()
	srv, err := stream.NewServer("127.0.0.1:0", stream.WithSpool(f.sp), stream.WithDrainTimeout(time.Minute))
	if err != nil {
		return nil, nil, err
	}
	cleanup.push(func() { srv.Abort() })
	ws := make([]*worker, parts)
	for part := range ws {
		w := newWorker(part, b.c.rule, b.tr)
		ws[part] = w
		cleanup.push(func() { w.p.Close() })
	}
	p.startS = float64(now()-tStart) / 1e9

	var ms0 runtime.MemStats
	if r.traced {
		runtime.ReadMemStats(&ms0)
	}
	rb := b.tr.buf()
	roundID := b.tr.id()
	var smp *sampler
	if r.traced {
		smp = startSampler(n, nil, nil, srv)
		defer smp.end()
	}
	rss := startRSS()
	t0 := now()
	for _, w := range ws {
		if err := w.dial(srv.Addr()); err != nil {
			rss.end()
			return nil, nil, err
		}
		cleanup.push(func() { w.c.Close() })
	}
	wwg := b.runWorkers(ws, roundID)
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	wwg.Wait()
	tEnd := max(ws[0].done, ws[1].done)
	p.peakRSSMB = rss.end()
	p.windowS = float64(tEnd-t0) / 1e9
	rb.add(roundID, 0, "round", t0, tEnd)
	if err := <-closed; err != nil {
		return nil, nil, err
	}
	if r.traced {
		smp.end()
		smp.record(r, t0)
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		r.layer["go.alloc_bytes_per_event"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n)
		st := f.sp.Stats()
		r.layer["spool.bytes_per_event"] = float64(st.Bytes) / float64(n)
		r.layer["spool.segments"] = float64(st.Segments)
		// No relay or edge is on this path.
		r.layer["relay.lag_p99_events"] = 0
		r.layer["relay.frames_per_kevent"] = 0
		r.layer["edge.encodes_per_kevent"] = 0
	}
	if ev := srv.Stats().Evicted; ev != 0 {
		return nil, nil, fmt.Errorf("root evicted %d sessions", ev)
	}
	if err := b.judge(r, p, ws, f.seqd, f.want, func(uint64) int64 { return t0 }, true); err != nil {
		return nil, nil, err
	}
	return p, ws, nil
}
