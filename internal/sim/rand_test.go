package sim

import (
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"
)

// sameStream draws n values through a mix of rand.Rand methods from
// both generators and fails at the first difference. The mix covers
// every path rand.Rand takes into its source: Int63 (Int63, Float64,
// Intn, Perm's Intn) and Uint64.
func sameStream(t *testing.T, got, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		var g, w any
		switch i % 5 {
		case 0:
			g, w = got.Int63(), want.Int63()
		case 1:
			g, w = got.Uint64(), want.Uint64()
		case 2:
			g, w = got.Float64(), want.Float64()
		case 3:
			g, w = got.Intn(1+i), want.Intn(1+i)
		case 4:
			gp, wp := got.Perm(1+i%7), want.Perm(1+i%7)
			for j := range wp {
				if gp[j] != wp[j] {
					t.Fatalf("draw %d: Perm = %v, want %v", i, gp, wp)
				}
			}
			continue
		}
		if g != w {
			t.Fatalf("draw %d: got %v, want %v", i, g, w)
		}
	}
}

// derivedSeed is DeriveRand's seed derivation, restated independently.
func derivedSeed(seed int64, tag string) int64 {
	h := fnv.New64a()
	for i := 0; i < 8; i++ {
		h.Write([]byte{byte(uint64(seed) >> (8 * i))})
	}
	h.Write([]byte(tag))
	return int64(h.Sum64())
}

// The lazily seeded generators are bit-for-bit the eager ones.
func TestLazyRandMatchesEagerSource(t *testing.T) {
	seeds := rand.New(rand.NewSource(20010416))
	for i := 0; i < 20; i++ {
		seed := seeds.Int63() - seeds.Int63() // both signs
		s := NewScheduler(seed)
		sameStream(t, s.Rand(), rand.New(rand.NewSource(seed)), 10000)
		for _, tag := range []string{"faults", "stress-plan", ""} {
			sameStream(t, s.DeriveRand(tag), rand.New(rand.NewSource(derivedSeed(seed, tag))), 10000)
		}
	}
}

// Rand hands out one generator, and reseeding it restarts the stream.
func TestLazyRandIdentityAndReseed(t *testing.T) {
	s := NewScheduler(7)
	if s.Rand() != s.Rand() {
		t.Fatal("Rand returned two generators")
	}
	s.Rand().Int63()
	s.Rand().Seed(11)
	sameStream(t, s.Rand(), rand.New(rand.NewSource(11)), 100)
}

// A stream nobody draws from is never seeded: rand.NewSource alone
// allocates a 607-word table (4.9 KB).
func TestUndrawnRandIsNotSeeded(t *testing.T) {
	const rounds = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		s := NewScheduler(int64(i))
		undrawn = s.Rand()
		undrawn = s.DeriveRand("faults")
	}
	runtime.ReadMemStats(&after)
	if perWorld := (after.TotalAlloc - before.TotalAlloc) / rounds; perWorld >= 4096 {
		t.Fatalf("a scheduler with two undrawn streams costs %d bytes: a generator was seeded", perWorld)
	}
}

var undrawn *rand.Rand

func FuzzLazyRand(f *testing.F) {
	f.Add(int64(0), "")
	f.Add(int64(1), "faults")
	f.Add(int64(-1), "stress-faults")
	f.Add(int64(1<<63-1), "\x00")
	f.Add(int64(-1<<63), "stress-plan")
	f.Fuzz(func(t *testing.T, seed int64, tag string) {
		s := NewScheduler(seed)
		sameStream(t, s.Rand(), rand.New(rand.NewSource(seed)), 200)
		sameStream(t, s.DeriveRand(tag), rand.New(rand.NewSource(derivedSeed(seed, tag))), 200)
		// Reset hands the tables just seeded on to the next world, which
		// reseeds them in place: after k more draws, the next seed's
		// streams are still rand.NewSource's.
		k := int(uint64(seed) % 300)
		next := seed ^ int64(derivedSeed(seed, tag))
		s.Rand().Int63n(1 + int64(k))
		for i := 0; i < k; i++ {
			s.DeriveRand(tag).Uint64()
		}
		s.Reset(next)
		sameStream(t, s.DeriveRand(tag), rand.New(rand.NewSource(derivedSeed(next, tag))), 200)
		sameStream(t, s.Rand(), rand.New(rand.NewSource(next)), 200)
	})
}
