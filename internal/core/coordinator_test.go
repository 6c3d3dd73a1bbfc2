package core

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"griphon/internal/optics"
	"griphon/internal/topo"
)

func TestCoordinatorClaimConflicts(t *testing.T) {
	co := NewCoordinator(80)
	if err := co.claimChannel(2, "II-III", 7); err != nil {
		t.Fatal(err)
	}
	for _, shard := range []int{0, 2} { // another shard, then the holder itself
		err := co.claimChannel(shard, "II-III", 7)
		if err == nil || !strings.Contains(err.Error(), "channel 7 on II-III already owned by shard-2") {
			t.Errorf("shard %d claiming a held channel: err = %v, want a conflict naming shard-2", shard, err)
		}
	}
	if !co.ownsChannel(2, "II-III", 7) || co.ownsChannel(0, "II-III", 7) {
		t.Error("a refused claim changed ownership")
	}
	if err := co.claimChannel(0, "I-IV", 7); err != nil {
		t.Errorf("same channel on another link: %v", err)
	}
	if v := co.Violations(); len(v) != 0 {
		t.Errorf("refused claims recorded violations: %v", v)
	}
}

func TestCoordinatorReleaseViolations(t *testing.T) {
	co := NewCoordinator(80)
	if err := co.claimChannel(1, "I-IV", 70); err != nil { // second mask word
		t.Fatal(err)
	}
	co.releaseChannel(0, "I-IV", 70) // not the owner
	if got := co.Violations(); len(got) != 1 || !strings.Contains(got[0], "shard-0") {
		t.Fatalf("release by a non-owner: violations = %v, want one naming shard-0", got)
	}
	co.releaseChannel(1, "I-III", 3) // never claimed by anyone
	if got := co.Violations(); len(got) != 2 {
		t.Fatalf("release of an unclaimed channel: violations = %v, want two", got)
	}
	if !co.ownsChannel(1, "I-IV", 70) {
		t.Error("a refused release cleared the owner's claim")
	}
	if err := co.claimChannel(0, "I-IV", 70); err == nil {
		t.Error("a refused release freed the channel for another shard")
	}

	co.releaseChannel(1, "I-IV", 70)
	if co.ownsChannel(1, "I-IV", 70) || len(co.Violations()) != 2 {
		t.Errorf("owner's release: still owned or new violation %v", co.Violations())
	}
	if err := co.claimChannel(0, "I-IV", 70); err != nil {
		t.Errorf("claim after release: %v", err)
	}
}

func TestCoordinatorMaskForeign(t *testing.T) {
	co := NewCoordinator(80)
	for _, c := range []struct {
		shard int
		ch    optics.Channel
	}{{0, 1}, {1, 2}, {1, 66}, {0, 67}} {
		if err := co.claimChannel(c.shard, "I-IV", c.ch); err != nil {
			t.Fatal(err)
		}
	}
	free := []uint64{^uint64(0), ^uint64(0)}
	co.Broker(0).MaskForeign("I-IV", free)
	// Channels 2 and 66 (bit 1 of each word) are shard 1's; 1 and 67 are ours.
	if want := []uint64{^uint64(0) &^ 2, ^uint64(0) &^ 2}; !reflect.DeepEqual(free, want) {
		t.Errorf("mask for shard 0 = %#x, want %#x", free, want)
	}
	untouched := []uint64{^uint64(0), ^uint64(0)}
	co.Broker(0).MaskForeign("II-III", untouched)
	if untouched[0] != ^uint64(0) || untouched[1] != ^uint64(0) {
		t.Errorf("mask on a link nobody claimed = %#x", untouched)
	}
}

func TestCoordinatorShardClaims(t *testing.T) {
	co := NewCoordinator(80)
	claims := []struct {
		link topo.LinkID
		ch   optics.Channel
	}{{"II-III", 9}, {"I-IV", 65}, {"I-IV", 2}}
	for _, c := range claims {
		if err := co.Broker(1).ClaimChannel(c.link, c.ch, "owner"); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := co.shardClaims(1), []string{"I-IV:2", "I-IV:65", "II-III:9"}; !reflect.DeepEqual(got, want) {
		t.Errorf("shardClaims = %v, want %v", got, want)
	}
	if got := co.shardClaims(0); len(got) != 0 {
		t.Errorf("shard 0 holds %v, want nothing", got)
	}
	for _, c := range claims {
		co.Broker(1).ReleaseChannel(c.link, c.ch)
	}
	if got := co.shardClaims(1); len(got) != 0 {
		t.Errorf("claims after releasing everything: %v", got)
	}
}

// TestCoordinatorConcurrentShards drives two shards' claim/mask/release
// cycles on disjoint channels of one link from two goroutines: the broker is
// safe for shards on goroutines of their own. Run under -race.
func TestCoordinatorConcurrentShards(t *testing.T) {
	co := NewCoordinator(80)
	var wg sync.WaitGroup
	for shard := 0; shard < 2; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			b := co.Broker(shard)
			for round := 0; round < 50; round++ {
				for ch := optics.Channel(1 + shard); ch <= 80; ch += 2 {
					if err := b.ClaimChannel("I-IV", ch, "owner"); err != nil {
						t.Errorf("shard %d channel %d: %v", shard, ch, err)
					}
				}
				words := []uint64{^uint64(0), ^uint64(0)}
				b.MaskForeign("I-IV", words)
				for ch := optics.Channel(1 + shard); ch <= 80; ch += 2 {
					if w, bit := chanBit(ch); words[w]&bit == 0 {
						t.Errorf("shard %d: own channel %d masked as foreign", shard, ch)
					}
					b.ReleaseChannel("I-IV", ch)
				}
			}
		}(shard)
	}
	wg.Wait()
	if v := co.Violations(); len(v) != 0 {
		t.Errorf("violations: %v", v)
	}
	for shard := 0; shard < 2; shard++ {
		if got := co.shardClaims(shard); len(got) != 0 {
			t.Errorf("shard %d still holds %v", shard, got)
		}
	}
}
