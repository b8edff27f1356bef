package main

import (
	"bytes"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"sybilwild/internal/stream"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// rssSampler polls the process's resident set size while a timed phase
// runs and keeps the highest value seen. Reading /proc/self/statm is
// cheap; the kernel's own high-water mark would also count set-up.
type rssSampler struct {
	mu   sync.Mutex
	peak int64
	stop chan struct{}
	done chan struct{}
}

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			r.sample()
			select {
			case <-r.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

func (r *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return
	}
	rss := pages * int64(os.Getpagesize())
	r.mu.Lock()
	if rss > r.peak {
		r.peak = rss
	}
	r.mu.Unlock()
}

// end stops sampling and returns the peak in MB.
func (r *rssSampler) end() float64 {
	close(r.stop)
	<-r.done
	r.sample()
	return float64(r.peak) / (1 << 20)
}

// stack runs clean-up functions in reverse order.
type stack []func()

func (s *stack) push(f func()) { *s = append(*s, f) }
func (s *stack) run() {
	for i := len(*s) - 1; i >= 0; i-- {
		(*s)[i]()
	}
	*s = nil
}

// sampler polls broker state every millisecond during a traced round:
// the root's head (when it reaches the last event, everything is
// sequenced), the relay lag (root head − edge head) and each worker
// session's distance behind the serving broker's head.
type sampler struct {
	once        sync.Once
	stop, done  chan struct{}
	sequencedAt int64
	lag         []float64
	behind      []float64
	catchup     int
	sessions    int
}

func startSampler(n uint64, root, edge, serving *stream.Server) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			if root != nil {
				rh := root.HeadSeq()
				if s.sequencedAt == 0 && rh >= n {
					s.sequencedAt = now()
				}
				if edge != nil {
					s.lag = append(s.lag, float64(rh-min(rh, edge.HeadSeq())))
				}
			}
			for _, ss := range serving.Stats().PerSession {
				if ss.Relay || !ss.Connected {
					continue
				}
				s.sessions++
				s.behind = append(s.behind, float64(ss.Behind))
				if ss.CatchUp {
					s.catchup++
				}
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) end() {
	if s == nil {
		return
	}
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

// record adds the sampled layer values to r.
func (s *sampler) record(r *round, t0 int64) {
	if s.sequencedAt > 0 {
		r.layer["root.sequenced_s"] = float64(s.sequencedAt-t0) / 1e9
	}
	r.layer["relay.lag_p99_events"] = quantile(s.lag, 0.99)
	r.layer["session.behind_p99_events"] = quantile(s.behind, 0.99)
	if s.sessions > 0 {
		r.layer["session.catchup_share"] = float64(s.catchup) / float64(s.sessions)
	}
}
