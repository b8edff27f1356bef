package main

import (
	"testing"

	"sybilwild/internal/detector"
	"sybilwild/internal/osn"
	"sybilwild/internal/sim"
)

// oracleFixture returns a replay verdict on ten accounts and the
// per-partition flag sets that match it exactly.
func oracleFixture() (map[osn.AccountID]oracleFlag, [][]detector.Flag) {
	want := make(map[osn.AccountID]oracleFlag)
	perPart := make([][]detector.Flag, parts)
	for id := osn.AccountID(100); id < 110; id++ {
		at := sim.Time(id) * 7
		want[id] = oracleFlag{at: at, seq: uint64(id)}
		p := osn.Partition(id, parts)
		perPart[p] = append(perPart[p], detector.Flag{ID: id, At: at})
	}
	return want, perPart
}

func TestCheckFlags(t *testing.T) {
	want, perPart := oracleFixture()
	if _, err := checkFlags(want, perPart, 0); err != nil {
		t.Fatalf("matching flag sets rejected: %v", err)
	}

	// One account added, in the partition that owns it.
	added := osn.AccountID(500)
	_, perPart = oracleFixture()
	owner := osn.Partition(added, parts)
	perPart[owner] = append(perPart[owner], detector.Flag{ID: added, At: 1})
	if _, err := checkFlags(want, perPart, 0); err == nil {
		t.Error("flag set with one account added accepted")
	}

	// One account removed.
	_, perPart = oracleFixture()
	perPart[0] = perPart[0][1:]
	if _, err := checkFlags(want, perPart, 0); err == nil {
		t.Error("flag set with one account removed accepted")
	}

	// One account flagged by the partition that does not own it.
	_, perPart = oracleFixture()
	moved := perPart[0][0]
	perPart[0] = perPart[0][1:]
	perPart[1] = append(perPart[1], moved)
	if _, err := checkFlags(want, perPart, 0); err == nil {
		t.Error("flag raised by the wrong partition accepted")
	}

	// Nothing to compare against.
	if _, err := checkFlags(map[osn.AccountID]oracleFlag{}, make([][]detector.Flag, parts), graphAheadTolerance); err == nil {
		t.Error("empty replay accepted")
	}
}

// TestCheckFlagsTolerance: the benchmark's tolerance for known fault
// (a) lets a single missing account through, reported, but not more
// than the tolerance, and never a flag by the wrong partition.
func TestCheckFlagsTolerance(t *testing.T) {
	want, perPart := oracleFixture()
	gone := perPart[0][0].ID
	perPart[0] = perPart[0][1:]
	rep, err := checkFlags(want, perPart, graphAheadTolerance)
	if err != nil {
		t.Fatalf("one differing account within tolerance rejected: %v", err)
	}
	if len(rep.missing) != 1 || rep.missing[0] != gone {
		t.Fatalf("report names %v as missing, want [%d]", rep.missing, gone)
	}

	// One account more than tolerated goes missing.
	want, perPart = oracleFixture()
	for i := 0; i <= graphAheadTolerance; i++ {
		id := osn.AccountID(100 + i)
		p := osn.Partition(id, parts)
		for j, f := range perPart[p] {
			if f.ID == id {
				perPart[p] = append(perPart[p][:j], perPart[p][j+1:]...)
				break
			}
		}
	}
	if _, err := checkFlags(want, perPart, graphAheadTolerance); err == nil {
		t.Error("more differing accounts than tolerated accepted")
	}

	want, perPart = oracleFixture()
	moved := perPart[0][0]
	perPart[0] = perPart[0][1:]
	perPart[1] = append(perPart[1], moved)
	if _, err := checkFlags(want, perPart, graphAheadTolerance); err == nil {
		t.Error("flag raised by the wrong partition accepted under the tolerance")
	}
}

// TestCompareFlagsCountsAtMismatch: a flag raised at another time than
// the replay's is counted, not rejected.
func TestCompareFlagsCountsAtMismatch(t *testing.T) {
	want, perPart := oracleFixture()
	perPart[1][0].At++
	rep, err := compareFlags(want, perPart)
	if err != nil {
		t.Fatal(err)
	}
	if rep.atMismatch != 1 || rep.differing() != 0 {
		t.Fatalf("got %d At mismatches and %d differing accounts, want 1 and 0", rep.atMismatch, rep.differing())
	}
}

// TestLogIndicesRejectsReorder: the sequenced feed must keep each
// producer's events in the order it published them.
func TestLogIndicesRejectsReorder(t *testing.T) {
	c := &campaign{}
	for i := 0; i < 40; i++ {
		ev := osn.Event{Type: osn.EvFriendRequest, At: sim.Time(i), Actor: osn.AccountID(i % 7), Target: 1}
		c.events = append(c.events, ev)
		p := osn.Partition(ev.Actor, producers)
		c.byProducer[p] = append(c.byProducer[p], int32(i))
	}
	seqd := append([]osn.Event(nil), c.events...)
	if _, err := logIndices(c, seqd); err != nil {
		t.Fatalf("log order rejected: %v", err)
	}
	// Swap two events of one producer.
	p0 := c.byProducer[0]
	seqd[p0[0]], seqd[p0[1]] = seqd[p0[1]], seqd[p0[0]]
	if _, err := logIndices(c, seqd); err == nil {
		t.Fatal("a producer's events out of order accepted")
	}
}
