package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors now(): every timestamp in the benchmark is monotonic
// nanoseconds since process start.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// span is one timed call at a layer boundary: a name, when it started
// and ended, and the span that caused it (0: none).
type span struct {
	id, parent int64
	name       string
	start, end int64
}

// tracer keeps spans in memory until the run ends. Each goroutine
// records into its own spanBuf, so recording takes no lock. A tracer
// that is off records nothing and hands out id 0.
type tracer struct {
	on   bool
	next atomic.Int64
	mu   sync.Mutex
	bufs []*spanBuf
}

type spanBuf struct {
	t     *tracer
	spans []span
}

// buf returns a fresh per-goroutine recorder.
func (t *tracer) buf() *spanBuf {
	b := &spanBuf{t: t}
	if t.on {
		t.mu.Lock()
		t.bufs = append(t.bufs, b)
		t.mu.Unlock()
	}
	return b
}

// id reserves a span id, so children can name their parent before the
// parent span has ended.
func (t *tracer) id() int64 {
	if !t.on {
		return 0
	}
	return t.next.Add(1)
}

// add records a span under a reserved id (0: reserve one now).
func (b *spanBuf) add(id, parent int64, name string, start, end int64) {
	if !b.t.on {
		return
	}
	if id == 0 {
		id = b.t.id()
	}
	b.spans = append(b.spans, span{id: id, parent: parent, name: name, start: start, end: end})
}

// take returns every span recorded so far and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var all []span
	for _, b := range t.bufs {
		all = append(all, b.spans...)
		b.spans = nil
	}
	return all
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover. Children of one span run one after
// another on one goroutine, except a round's, whose children overlap;
// their union is taken.
func selfTimes(spans []span) map[string]float64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make(map[string]float64)
	for _, s := range spans {
		covered := int64(0)
		iv := kids[s.id]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		lo, hi := int64(0), int64(-1)
		for _, c := range iv {
			a, z := max(c[0], s.start), min(c[1], s.end)
			if z <= a {
				continue
			}
			if a > hi {
				if hi > lo {
					covered += hi - lo
				}
				lo, hi = a, z
			} else if z > hi {
				hi = z
			}
		}
		if hi > lo {
			covered += hi - lo
		}
		self[s.name] += float64(s.end-s.start-covered) / 1e6
	}
	return self
}

// writeSpans writes spans as tab-separated lines (id, parent, name,
// start ns, end ns) to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
