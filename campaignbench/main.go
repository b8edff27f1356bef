// Command campaignbench measures the detection chain end to end in one
// process: a simulated Sybil campaign (internal/agents) is published by
// two wire producers into a spooled root broker, adopted by a spooled
// relay edge, and judged by two partitioned workers, each a
// partition-gated detector pipeline fed by a partitioned subscription.
// A handoff leg then starts a replacement for every partition from its
// worker's snapshot (cluster.Start with Handoff). Every round is checked
// against a causal replay of the broker's sequenced order through the
// serial Monitor, and against completeness checks on every hop.
//
// Usage, from the repository root:
//
//	bash campaignbench/run.sh --workload flood|live|backfill --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones, with --trace 1 the per-layer ones. A run
// whose outputs fail a check exits with status 1. README.md in this
// directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// setupReps is how many times a run sets up; setup_s is the median.
// Each repetition simulates the campaign afresh, and the repetitions
// must agree event for event.
const setupReps = 3

type bench struct {
	workload string
	seed     int64
	trace    bool
	dir      string
	tr       *tracer
	c        *campaign
	fills    []*prefill // backfill: one per set-up repetition
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "flood, live or backfill")
	seed := flag.Int64("seed", 1, "campaign seed")
	seconds := flag.Int("seconds", 10, "how long to measure; whole rounds run until this much time has passed")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from traced rounds")
	flag.Parse()
	switch *workload {
	case "flood", "live", "backfill":
	default:
		fmt.Fprintf(os.Stderr, "campaignbench: unknown workload %q (want flood, live or backfill)\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "campaignbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if res != nil {
		out, jerr := json.Marshal(res)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "campaignbench:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(out))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, measure time.Duration, trace bool) (*result, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "campaignbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{workload: workload, seed: seed, trace: trace, dir: dir, tr: &tracer{}}

	var setup, simS, fitS []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := now()
		c, err := simulate(seed)
		if err != nil {
			return nil, err
		}
		if b.c != nil {
			if err := sameCampaign(b.c, c); err != nil {
				return nil, fmt.Errorf("seed %d simulated twice differs: %w", seed, err)
			}
		}
		b.c = c
		if workload == "backfill" {
			b.tr.on = trace
			f, err := b.prefill()
			if err != nil {
				return nil, fmt.Errorf("prefill: %w", err)
			}
			b.fills = append(b.fills, f)
		}
		setup = append(setup, float64(now()-t0)/1e9)
		simS = append(simS, c.simS)
		fitS = append(fitS, c.fitS)
	}
	for _, f := range b.fills {
		defer f.sp.Close()
	}
	b.tr.take()
	runtime.GC()
	debug.FreeOSMemory()

	var rounds []*round
	n := len(b.c.events)
	deadline := time.Now().Add(measure)
	for i := 0; ; i++ {
		traced := trace && i%2 == 1
		// Every round starts from a collected heap returned to the OS,
		// so rounds do not inherit each other's garbage.
		runtime.GC()
		debug.FreeOSMemory()
		var r *round
		var err error
		switch workload {
		case "flood":
			r, err = b.chainRound(0, traced)
		case "live":
			r, err = b.chainRound(liveRate, traced)
		case "backfill":
			r, err = b.backfillRound(traced)
		}
		if err != nil {
			failed := n
			if r != nil && r.failed > 0 {
				failed = r.failed
			}
			return &result{Correct: false, Attempted: n, Failed: failed, Metrics: map[string]metric{}},
				fmt.Errorf("round %d: %w", i+1, err)
		}
		rounds = append(rounds, r)
		for _, p := range r.passes {
			fmt.Fprintf(os.Stderr, "campaignbench: %s round %d: %d events in %.3f s (traced %v)\n",
				workload, i+1, n, p.windowS, traced)
		}
		fmt.Fprintf(os.Stderr, "campaignbench: %s round %d: handoffs %.1f ms\n", workload, i+1, r.handoffMs)
		if time.Now().After(deadline) && (!trace || len(rounds) >= 2) {
			break
		}
	}
	passes := 0
	for _, r := range rounds {
		passes += len(r.passes)
	}
	res := &result{Correct: true, Attempted: n * passes, Metrics: map[string]metric{}}
	if trace {
		b.layerMetrics(res, rounds, simS, fitS)
	} else {
		endToEnd(res, rounds, n, setup)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return res, nil
}

// endToEnd reports what a user of the system sees, from untraced
// rounds: each latency percentile and the peak memory are taken per
// round, and every metric is the median over rounds, so one disturbed
// round does not set the run's figure.
func endToEnd(res *result, rounds []*round, n int, setup []float64) {
	per := map[string][]float64{}
	var start []float64
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	for _, r := range rounds {
		for _, p := range r.passes {
			add("events_per_s", float64(n)/p.windowS)
			add("event_age_p50_ms", quantile(p.ages, 0.5))
			add("flag_latency_p50_ms", quantile(p.flagLat, 0.5))
			add("peak_rss_mb", p.peakRSSMB)
			start = append(start, p.startS)
		}
	}
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	set("setup_s", "s", median(setup)+median(start))
	for _, m := range []struct{ name, unit string }{
		{"events_per_s", "events/s"}, {"event_age_p50_ms", "ms"},
		{"flag_latency_p50_ms", "ms"}, {"peak_rss_mb", "MB"},
	} {
		set(m.name, m.unit, median(per[m.name]))
	}
}

// layerUnits lists every per-layer metric with its unit.
var layerUnits = map[string]string{
	"agents.sim_s":               "s",
	"rule.fit_s":                 "s",
	"publish.blocked_ms":         "ms",
	"publish.batches":            "count",
	"publish.late_p99_ms":        "ms",
	"root.sequenced_s":           "s",
	"root.encodes_per_kevent":    "1/kevent",
	"spool.bytes_per_event":      "B/event",
	"spool.segments":             "count",
	"relay.lag_p99_events":       "events",
	"relay.frames_per_kevent":    "1/kevent",
	"edge.encodes_per_kevent":    "1/kevent",
	"session.behind_p99_events":  "events",
	"session.catchup_share":      "share",
	"client.recv_wait_ms":        "ms",
	"client.events_per_batch":    "events",
	"client.eof_cursor_pins":     "count",
	"detector.ingest_ms":         "ms",
	"detector.close_ms":          "ms",
	"detector.flag_delay_p50_ms": "ms",
	"detector.flags":             "count",
	"detector.flag_at_mismatch":  "count",
	"detector.flag_set_mismatch": "count",
	"snapshot.ms":                "ms",
	"snapshot.bytes_per_account": "B",
	"offer.ms":                   "ms",
	"handoff.ms":                 "ms",
	"handoff.fetch_ms":           "ms",
	"handoff.restore_ms":         "ms",
	"reference.events_per_s":     "events/s",
	"go.alloc_bytes_per_event":   "B/event",
	"trace.overhead_pct":         "%",
	"tail.event_age_p90_ms":      "ms",
	"tail.event_age_p99_ms":      "ms",
	"tail.flag_latency_p90_ms":   "ms",
}

// spanNames are the spans the trace records; each gets a self-time
// metric self.<name>_ms.
var spanNames = []string{
	"round", "producer", "publish", "worker", "recv", "ingest", "snapshot", "close",
	"oracle.readback", "oracle.replay",
	"failover", "snapshot.marshal", "offer", "fetch", "restore", "handoff",
}

// layerMetrics reports per-layer values: the median over traced rounds
// of each round's value, each span's self time per round, and the
// tracing overhead — how much longer a traced round's window was than
// an untraced one's in the same run.
func (b *bench) layerMetrics(res *result, rounds []*round, simS, fitS []float64) {
	set := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	vals := map[string][]float64{}
	var tracedW, plainW []float64
	for _, r := range rounds {
		for _, p := range r.passes {
			if r.traced {
				tracedW = append(tracedW, p.windowS)
				continue
			}
			// Tail percentiles and the handoff time, from the untraced
			// rounds: too unsteady on a shared two-core machine to gate
			// on.
			plainW = append(plainW, p.windowS)
			vals["tail.event_age_p90_ms"] = append(vals["tail.event_age_p90_ms"], quantile(p.ages, 0.9))
			vals["tail.event_age_p99_ms"] = append(vals["tail.event_age_p99_ms"], quantile(p.ages, 0.99))
			vals["tail.flag_latency_p90_ms"] = append(vals["tail.flag_latency_p90_ms"], quantile(p.flagLat, 0.9))
		}
		if !r.traced {
			vals["handoff.ms"] = append(vals["handoff.ms"], r.handoffMs...)
			continue
		}
		for k, v := range r.layer {
			vals[k] = append(vals[k], v)
		}
		self := selfTimes(r.spans)
		for _, name := range spanNames {
			vals["self."+name+"_ms"] = append(vals["self."+name+"_ms"], self[name])
		}
	}
	for _, f := range b.fills {
		for k, v := range f.layer {
			vals[k] = append(vals[k], v)
		}
	}
	vals["agents.sim_s"] = simS
	vals["rule.fit_s"] = fitS
	vals["trace.overhead_pct"] = []float64{(median(tracedW)/median(plainW) - 1) * 100}
	for name, unit := range layerUnits {
		set(name, unit, median(vals[name]))
	}
	for _, name := range spanNames {
		set("self."+name+"_ms", "ms", median(vals["self."+name+"_ms"]))
	}
	for i := len(rounds) - 1; i >= 0; i-- {
		if rounds[i].traced {
			path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.tsv", b.workload, b.seed))
			if err := writeSpans(path, rounds[i].spans); err != nil {
				fmt.Fprintln(os.Stderr, "campaignbench: write spans:", err)
			}
			break
		}
	}
}
