package main

import (
	"encoding/json"
	"fmt"
	"runtime"

	"sybilwild/internal/cluster"
	"sybilwild/internal/detector"
	"sybilwild/internal/osn"
	"sybilwild/internal/spool"
	"sybilwild/internal/stream"
)

// failover is every workload's handoff leg. A fresh root over the
// round's spool holds the workers' head snapshots; for each partition a
// replacement started with cluster.Start{Handoff: true} must adopt the
// snapshot at the head and carry exactly the flags of the worker it
// replaces.
func (b *bench) failover(r *round, sp *spool.Spool, ws []*worker) error {
	n := uint64(len(b.c.events))
	srv, err := stream.NewServer("127.0.0.1:0", stream.WithSpool(sp))
	if err != nil {
		return err
	}
	var cleanup stack
	defer cleanup.run()
	cleanup.push(func() { srv.Abort() })
	tb := b.tr.buf()
	fid := b.tr.id()
	fStart := now()
	var snapNs, offerNs int64
	var bytes, accounts int
	for _, w := range ws {
		if w.snap.Seq != n {
			return fmt.Errorf("worker %d/%d: snapshot at seq %d, head is %d", w.part, parts, w.snap.Seq, n)
		}
		t0 := now()
		data, err := json.Marshal(w.snap)
		if err != nil {
			return err
		}
		t1 := now()
		if err := stream.OfferSnapshot(srv.Addr(), w.part, parts, w.snap.Seq, data); err != nil {
			return fmt.Errorf("offer %d/%d: %w", w.part, parts, err)
		}
		t2 := now()
		tb.add(0, fid, "snapshot.marshal", t0, t1)
		tb.add(0, fid, "offer", t1, t2)
		snapNs += w.snapNs + t1 - t0
		offerNs += t2 - t1
		bytes += len(data)
		accounts += len(w.snap.Accounts)
	}
	var fetchMs, restoreMs []float64
	var repls []*cluster.Worker
	for _, w := range ws {
		wantFlags := flagTimes(w.p.Flags())
		// The handoff starts from a collected heap, so its time
		// does not depend on where the previous work left the GC.
		runtime.GC()
		t0 := now()
		repl, err := cluster.Start(cluster.Config{
			Addr: srv.Addr(), Part: w.part, Parts: parts, Rule: b.c.rule, Handoff: true,
		})
		t1 := now()
		if err != nil {
			return fmt.Errorf("handoff %d/%d: %w", w.part, parts, err)
		}
		repls = append(repls, repl)
		cleanup.push(func() { repl.Kill(); repl.Wait() })
		tb.add(0, fid, "handoff", t0, t1)
		r.handoffMs = append(r.handoffMs, float64(t1-t0)/1e6)
		if repl.HandoffSeq() != n || repl.ResumedFrom() != n+1 {
			return fmt.Errorf("replacement %d/%d adopted seq %d and resumed at %d; head is %d",
				w.part, parts, repl.HandoffSeq(), repl.ResumedFrom(), n)
		}
		if err := sameFlags(wantFlags, flagTimes(repl.Pipeline().Flags())); err != nil {
			return fmt.Errorf("replacement %d/%d: %w", w.part, parts, err)
		}
		if r.traced {
			// The handoff's two halves on their own: the fetch from the
			// broker and the restore into a pipeline.
			t0 := now()
			_, data, err := stream.FetchSnapshot(srv.Addr(), w.part, parts)
			if err != nil {
				return fmt.Errorf("fetch %d/%d: %w", w.part, parts, err)
			}
			t1 := now()
			var snap detector.PipelineSnapshot
			if err := json.Unmarshal(data, &snap); err != nil {
				return err
			}
			p, _, err := detector.NewPipelineFromSnapshot(b.c.rule, nil, &snap,
				detector.WithGraphReconstruction(), detector.WithPartition(w.part, parts))
			if err != nil {
				return err
			}
			t2 := now()
			p.Close()
			tb.add(0, fid, "fetch", t0, t1)
			tb.add(0, fid, "restore", t1, t2)
			fetchMs = append(fetchMs, float64(t1-t0)/1e6)
			restoreMs = append(restoreMs, float64(t2-t1)/1e6)
		}
	}
	// Replacements close their clients in Wait; run Close alongside so
	// the drain is not held by a connection kept after eof.
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	for _, repl := range repls {
		if err := repl.Wait(); err != nil {
			return fmt.Errorf("replacement: %w", err)
		}
		if got := repl.Pipeline().Seq(); got != n {
			return fmt.Errorf("replacement ended at seq %d, head is %d", got, n)
		}
	}
	if err := <-closed; err != nil {
		return err
	}
	if ev := srv.Stats().Evicted; ev != 0 {
		return fmt.Errorf("handoff broker evicted %d sessions", ev)
	}
	tb.add(fid, 0, "failover", fStart, now())
	if r.traced {
		r.layer["snapshot.ms"] = float64(snapNs) / 1e6
		r.layer["snapshot.bytes_per_account"] = float64(bytes) / float64(max(accounts, 1))
		r.layer["handoff.fetch_ms"] = median(fetchMs)
		r.layer["handoff.restore_ms"] = median(restoreMs)
		r.layer["offer.ms"] = float64(offerNs) / 1e6
	}
	return nil
}

func flagTimes(fs []detector.Flag) map[osn.AccountID]int64 {
	m := make(map[osn.AccountID]int64, len(fs))
	for _, f := range fs {
		m[f.ID] = f.At
	}
	return m
}

func sameFlags(want, got map[osn.AccountID]int64) error {
	if len(want) != len(got) {
		return fmt.Errorf("carries %d flags, the replaced worker had %d", len(got), len(want))
	}
	for id, at := range want {
		if g, ok := got[id]; !ok || g != at {
			return fmt.Errorf("flag for account %d differs from the replaced worker's", id)
		}
	}
	return nil
}
