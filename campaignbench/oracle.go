package main

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"sybilwild/internal/detector"
	"sybilwild/internal/graph"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
	"sybilwild/internal/spool"
)

// readSequenced reads the feed back from a broker's spool in the exact
// order the broker sequenced it.
func readSequenced(sp *spool.Spool, capHint int) ([]osn.Event, error) {
	r, err := sp.ReadFrom(1)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	defer r.Close()
	out := make([]osn.Event, 0, capHint)
	for {
		var err error
		_, out, err = r.Next(out, 4096)
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("oracle: read spool: %w", err)
		}
	}
}

// oracleFlag is the causal replay's verdict on one account: the event
// time the partitioned pipeline reports as Flag.At, and the sequence of
// the request that triggered it.
type oracleFlag struct {
	at  sim.Time
	seq uint64
}

// causalFlags replays the sequenced feed through a serial Monitor whose
// graph grows edge by edge: each accept's edge is added just before the
// accept itself is observed, so every request is judged against exactly
// the friendships accepted before it in the broker's order. This is the
// reference the partitioned workers are checked against; it shares no
// code with detector.Pipeline's graph reconstruction or sharding.
func causalFlags(seqd []osn.Event, rule detector.Rule) map[osn.AccountID]oracleFlag {
	g := graph.New(0)
	flags := make(map[osn.AccountID]oracleFlag)
	var cur uint64
	m := detector.NewMonitor(rule, g, func(id osn.AccountID, at sim.Time) {
		flags[id] = oracleFlag{at: at, seq: cur}
	})
	for i, ev := range seqd {
		cur = uint64(i + 1)
		if ev.Type == osn.EvFriendRequest || ev.Type == osn.EvFriendAccept {
			hi := max(ev.Actor, ev.Target)
			for graph.NodeID(g.NumNodes()) <= hi {
				g.AddNode()
			}
			if ev.Type == osn.EvFriendAccept && ev.Actor != ev.Target {
				g.AddEdge(ev.Actor, ev.Target, ev.At)
			}
		}
		m.Observe(ev)
	}
	return flags
}

// flagReport is how the workers' flags differ from the causal replay.
type flagReport struct {
	atMismatch int             // flags whose Flag.At is not the replay's
	extra      []osn.AccountID // flagged by a worker, not by the replay
	missing    []osn.AccountID // flagged by the replay, by no worker
}

func (r flagReport) differing() int { return len(r.extra) + len(r.missing) }

// compareFlags compares the workers' flags (perPart[i] from partition
// i's worker) with the causal replay. It fails if the replay flagged
// nothing (the comparison would be vacuous) or if an account is flagged
// twice or by a partition that does not own it; otherwise it reports
// the accounts on which the two sets differ and how many common flags
// carry another Flag.At.
func compareFlags(want map[osn.AccountID]oracleFlag, perPart [][]detector.Flag) (flagReport, error) {
	var rep flagReport
	if len(want) == 0 {
		return rep, errors.New("oracle: the causal replay flagged nothing; the comparison would be vacuous")
	}
	seen := make(map[osn.AccountID]int, len(want))
	for part, flags := range perPart {
		for _, f := range flags {
			if owner := osn.Partition(f.ID, len(perPart)); owner != part {
				return rep, fmt.Errorf("oracle: partition %d flagged account %d, which partition %d owns", part, f.ID, owner)
			}
			if prev, dup := seen[f.ID]; dup {
				return rep, fmt.Errorf("oracle: account %d flagged by partitions %d and %d", f.ID, prev, part)
			}
			seen[f.ID] = part
			o, ok := want[f.ID]
			switch {
			case !ok:
				rep.extra = append(rep.extra, f.ID)
			case o.at != f.At:
				rep.atMismatch++
			}
		}
	}
	for id := range want {
		if _, ok := seen[id]; !ok {
			rep.missing = append(rep.missing, id)
		}
	}
	sort.Slice(rep.extra, func(i, j int) bool { return rep.extra[i] < rep.extra[j] })
	sort.Slice(rep.missing, func(i, j int) bool { return rep.missing[i] < rep.missing[j] })
	return rep, nil
}

// checkFlags is the oracle check: compareFlags, and the two sets may
// differ on at most tolerance accounts. The benchmark passes
// graphAheadTolerance for known fault (a); the report names the
// accounts either way.
func checkFlags(want map[osn.AccountID]oracleFlag, perPart [][]detector.Flag, tolerance int) (flagReport, error) {
	rep, err := compareFlags(want, perPart)
	if err != nil {
		return rep, err
	}
	if rep.differing() > tolerance {
		return rep, fmt.Errorf("oracle: the workers flagged %v that the causal replay did not, and missed %v (%d differing, %d tolerated)",
			rep.extra, rep.missing, rep.differing(), tolerance)
	}
	return rep, nil
}

// triggerSeqs returns, for each worker flag, the sequence of the
// request that triggered it: the replay's when the flag's time agrees
// with it, otherwise the first request the account sent at Flag.At.
func triggerSeqs(seqd []osn.Event, want map[osn.AccountID]oracleFlag, hooks []hookRec) []uint64 {
	out := make([]uint64, len(hooks))
	type key struct {
		id osn.AccountID
		at sim.Time
	}
	var lookup map[key]uint64
	for i, h := range hooks {
		if o, ok := want[h.id]; ok && o.at == h.at {
			out[i] = o.seq
			continue
		}
		if lookup == nil {
			lookup = make(map[key]uint64)
			for _, h := range hooks {
				lookup[key{h.id, h.at}] = 0
			}
			for s, ev := range seqd {
				k := key{ev.Actor, ev.At}
				if v, ok := lookup[k]; ok && v == 0 && ev.Type == osn.EvFriendRequest {
					lookup[k] = uint64(s + 1)
				}
			}
		}
		out[i] = lookup[key{h.id, h.at}]
	}
	return out
}
