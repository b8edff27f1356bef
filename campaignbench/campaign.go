package main

import (
	"fmt"
	"time"

	"sybilwild/internal/agents"
	"sybilwild/internal/detector"
	"sybilwild/internal/features"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
)

// Campaign size. At these values a campaign is 0.46–0.59 M log events,
// depending on the seed; every workload carries the first logEvents of
// them, so each seed asks the same amount of work. Through the chain on
// two cores that takes about a second: long enough that a round is not
// dominated by start-up, short enough that a run holds several rounds
// to take a median over.
const (
	campaignNormals = 8000
	campaignSybils  = 250
	campaignHours   = 400
	launchHours     = 100 // Sybils are launched over the first quarter
	logEvents       = 450_000
)

// producers is the size of the publishing group and parts the number
// of detection partitions. Both are 2 so that load never asks for more
// threads of work than a two-core machine has.
const (
	producers = 2
	parts     = 2
)

// campaign is one simulated Sybil campaign: the operational log the
// chain carries, the rule fitted on its ground truth, and the log split
// by producer the way renrend's publish mode splits it (by actor).
type campaign struct {
	events     []osn.Event
	rule       detector.Rule
	byProducer [producers][]int32 // log indices each producer publishes, in log order
	simS, fitS float64
}

// simulate builds the campaign for seed, keeps its first logEvents
// events and fits the rule on its ground truth. A seed whose campaign
// falls short is simulated again with more Sybils, so the result still
// depends on the seed alone.
func simulate(seed int64) (*campaign, error) {
	t0 := time.Now()
	var pop *agents.Population
	for sybils := campaignSybils; ; sybils += campaignSybils / 5 {
		if sybils > 2*campaignSybils {
			return nil, fmt.Errorf("seed %d: campaign stays below %d events", seed, logEvents)
		}
		pop = agents.NewPopulation(seed, agents.DefaultParams())
		pop.Bootstrap(campaignNormals)
		pop.LaunchSybils(sybils, launchHours*sim.TicksPerHour)
		pop.RunFor(campaignHours * sim.TicksPerHour)
		if len(pop.Net.Events()) >= logEvents {
			break
		}
	}
	t1 := time.Now()
	rule := detector.FitRule(features.Labelled(pop.Net, pop.Sybils, pop.Normals), detector.PaperRule())
	c := &campaign{
		events: pop.Net.Events()[:logEvents],
		rule:   rule,
		simS:   t1.Sub(t0).Seconds(),
		fitS:   time.Since(t1).Seconds(),
	}
	for i, ev := range c.events {
		p := osn.Partition(ev.Actor, producers)
		c.byProducer[p] = append(c.byProducer[p], int32(i))
	}
	return c, nil
}

// sameCampaign reports how two simulations of one seed differ, if they
// do: the simulation is deterministic, so any difference is a fault.
func sameCampaign(a, b *campaign) error {
	if a.rule != b.rule {
		return fmt.Errorf("rule %v vs %v", a.rule, b.rule)
	}
	if len(a.events) != len(b.events) {
		return fmt.Errorf("%d vs %d events", len(a.events), len(b.events))
	}
	for i := range a.events {
		if a.events[i] != b.events[i] {
			return fmt.Errorf("event %d differs: %+v vs %+v", i, a.events[i], b.events[i])
		}
	}
	return nil
}

// logIndices maps each sequenced position to the log index of the
// event sequenced there. The broker interleaves the producers'
// streams, but each producer's own events must come out in the order
// it published them, each exactly once; anything else is an error.
func logIndices(c *campaign, seqd []osn.Event) ([]int32, error) {
	if len(seqd) != len(c.events) {
		return nil, fmt.Errorf("sequenced %d events, campaign has %d", len(seqd), len(c.events))
	}
	var cur [producers]int
	idx := make([]int32, len(seqd))
	for s, ev := range seqd {
		p := osn.Partition(ev.Actor, producers)
		if cur[p] >= len(c.byProducer[p]) {
			return nil, fmt.Errorf("seq %d: producer %d sequenced more events than it published", s+1, p)
		}
		li := c.byProducer[p][cur[p]]
		cur[p]++
		if c.events[li] != ev {
			return nil, fmt.Errorf("seq %d: expected producer %d's log event %d %+v, got %+v", s+1, p, li, c.events[li], ev)
		}
		idx[s] = li
	}
	return idx, nil
}
