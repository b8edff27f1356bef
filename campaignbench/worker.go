package main

import (
	"errors"
	"fmt"

	"sybilwild/internal/detector"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
	"sybilwild/internal/stream"
)

// hookRec is one flag hook firing.
type hookRec struct {
	id osn.AccountID
	at sim.Time
	t  int64
}

// batchRec is one Ingest call: when it was made and returned, the
// stream sequence it ended at, and where its events' sequences end in
// worker.seqs.
type batchRec struct {
	call, ret int64
	lastSeq   uint64
	seqEnd    int
}

// worker is one partition's consumer: a partitioned subscription
// (stream.DialFrom + WithPartition) drained with RecvBatch into a
// partition-gated pipeline that reconstructs its own graph. At eof it
// closes its client, takes the snapshot it will hand over, and closes
// its pipeline.
type worker struct {
	part int
	c    *stream.Client
	p    *detector.Pipeline
	tb   *spanBuf
	span int64 // reserved id of the worker's span

	hooks   []hookRec  // written by the merge goroutine; read after p.Close
	batches []batchRec // every Ingest call, in order
	seqs    []uint64   // sequences of every delivered event, in order

	snap    *detector.PipelineSnapshot
	snapNs  int64 // time inside Snapshot
	closeNs int64 // time inside Pipeline.Close
	recvNs  int64 // time inside RecvBatch
	calls   int   // RecvBatch calls that returned events
	pinned  bool  // the eof cursor moved the pipeline past the last delivery
	done    int64 // when Pipeline.Close returned
	err     error
}

// newWorker builds the worker's pipeline; dial connects it.
func newWorker(part int, rule detector.Rule, tr *tracer) *worker {
	w := &worker{part: part, tb: tr.buf(), span: tr.id()}
	w.p = detector.NewPipeline(rule, nil,
		detector.WithGraphReconstruction(),
		detector.WithPartition(part, parts),
		detector.WithFlagHook(func(f detector.Flag) {
			w.hooks = append(w.hooks, hookRec{id: f.ID, at: f.At, t: now()})
		}))
	return w
}

func (w *worker) dial(addr string) error {
	c, err := stream.DialFrom(addr, 1, stream.WithPartition(w.part, parts))
	if err != nil {
		w.p.Close()
		return fmt.Errorf("worker %d/%d: %w", w.part, parts, err)
	}
	w.c = c
	return nil
}

// run drains the subscription until eof. parent is the span the
// worker's own span hangs under.
func (w *worker) run(parent int64) {
	start := now()
	for {
		t0 := now()
		evs, err := w.c.RecvBatch()
		t1 := now()
		w.recvNs += t1 - t0
		w.tb.add(0, w.span, "recv", t0, t1)
		if err != nil {
			if !errors.Is(err, stream.ErrClosed) {
				w.err = fmt.Errorf("worker %d/%d: %w", w.part, parts, err)
			}
			break
		}
		w.calls++
		if seqs := w.c.LastBatchSeqs(); seqs != nil {
			w.seqs = append(w.seqs, seqs...)
		} else {
			last := w.c.LastSeq()
			for s := last - uint64(len(evs)) + 1; s <= last; s++ {
				w.seqs = append(w.seqs, s)
			}
		}
		b := batchRec{call: now(), lastSeq: w.c.LastSeq(), seqEnd: len(w.seqs)}
		w.p.Ingest(detector.Batch{Events: evs, LastSeq: b.lastSeq})
		b.ret = now()
		w.tb.add(0, w.span, "ingest", b.call, b.ret)
		w.batches = append(w.batches, b)
	}
	w.c.Close()
	// The eof cursor also covers trailing events of other partitions
	// that were never delivered; the pipeline's position moves with it.
	if last := w.c.LastSeq(); last > w.p.Seq() {
		w.pinned = true
		w.p.Ingest(detector.Batch{LastSeq: last})
	}
	t0 := now()
	w.snap = w.p.Snapshot()
	t1 := now()
	w.snapNs = t1 - t0
	w.tb.add(0, w.span, "snapshot", t0, t1)
	w.p.Close()
	w.done = now()
	w.closeNs = w.done - t1
	w.tb.add(0, w.span, "close", t1, w.done)
	w.tb.add(w.span, parent, "worker", start, w.done)
}

// checkDelivery verifies the worker received exactly the events its
// partition is owed, each once, in sequence order, and that its
// pipeline ended at the last sequence.
func (w *worker) checkDelivery(seqd []osn.Event) error {
	if w.err != nil {
		return w.err
	}
	n := uint64(len(seqd))
	if got := w.p.Seq(); got != n {
		return fmt.Errorf("worker %d/%d: pipeline ended at seq %d, root sequenced %d", w.part, parts, got, n)
	}
	i := 0
	for s, ev := range seqd {
		if !osn.PartitionDelivers(ev, w.part, parts) {
			continue
		}
		if i >= len(w.seqs) || w.seqs[i] != uint64(s+1) {
			got := "nothing"
			if i < len(w.seqs) {
				got = fmt.Sprintf("seq %d", w.seqs[i])
			}
			return fmt.Errorf("worker %d/%d: owed seq %d as its delivery %d, got %s", w.part, parts, s+1, i+1, got)
		}
		i++
	}
	if i != len(w.seqs) {
		return fmt.Errorf("worker %d/%d: received %d events, owed %d", w.part, parts, len(w.seqs), i)
	}
	return nil
}
