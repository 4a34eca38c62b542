package xmlschema

import (
	"slices"
	"sync"
	"testing"
)

func vocabRepo(t *testing.T) *Repository {
	t.Helper()
	rep := NewRepository()
	a, err := NewSchema("a", NewElement("order").Add(NewElement("id"), NewElement("straße").Add(NewElement("id"))))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSchema("b", NewElement("straße").Add(NewElement("price"), NewElement("order")))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Schema{a, b} {
		if err := rep.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	return rep
}

func TestVocabularyLayout(t *testing.T) {
	v := vocabRepo(t).Vocabulary()
	if want := []string{"order", "id", "straße", "price"}; !slices.Equal(v.Names, want) {
		t.Fatalf("Names = %q, want %q (first-seen order)", v.Names, want)
	}
	if want := [][]int32{{0, 1, 2, 1}, {2, 3, 0}}; len(v.IDs) != 2 || !slices.Equal(v.IDs[0], want[0]) || !slices.Equal(v.IDs[1], want[1]) {
		t.Fatalf("IDs = %v, want %v", v.IDs, want)
	}
	if i, ok := v.Index("price"); !ok || i != 3 {
		t.Fatalf("Index(price) = %d, %v", i, ok)
	}
	if _, ok := v.Index("absent"); ok {
		t.Fatal("Index found a name no element carries")
	}
	if v.Len() != 4 {
		t.Fatalf("Len = %d", v.Len())
	}
}

// An unsealed repository can still grow, so its vocabulary is rebuilt
// per call; a sealed one is built once.
func TestVocabularyCaching(t *testing.T) {
	rep := vocabRepo(t)
	v1 := rep.Vocabulary()
	c, err := NewSchema("c", NewElement("fresh"))
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Add(c); err != nil {
		t.Fatal(err)
	}
	v2 := rep.Vocabulary()
	if v1 == v2 || v2.Len() != v1.Len()+1 {
		t.Fatalf("unsealed vocabulary was cached (len %d then %d)", v1.Len(), v2.Len())
	}
	snap, err := NewSnapshot(rep)
	if err != nil {
		t.Fatal(err)
	}
	sealed := snap.Repository()
	if s1, s2 := sealed.Vocabulary(), sealed.Vocabulary(); s1 != s2 {
		t.Fatal("sealed repository rebuilt its vocabulary")
	}
	next, err := snap.Remove("c")
	if err != nil {
		t.Fatal(err)
	}
	if nv := next.Repository().Vocabulary(); nv == sealed.Vocabulary() || nv.Len() != v1.Len() {
		t.Fatalf("derived snapshot shares or mis-sizes its vocabulary (len %d)", nv.Len())
	}
}

// Concurrent first callers on a sealed repository all receive the one
// stored vocabulary. Run under -race.
func TestVocabularyConcurrentFirstUse(t *testing.T) {
	snap, err := NewSnapshot(vocabRepo(t))
	if err != nil {
		t.Fatal(err)
	}
	rep := snap.Repository()
	const n = 8
	got := make([]*Vocabulary, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = rep.Vocabulary()
		}()
	}
	wg.Wait()
	for _, v := range got {
		if v != got[0] || v != rep.Vocabulary() {
			t.Fatal("concurrent first callers received different vocabularies")
		}
	}
	if got[0].Len() != 4 {
		t.Fatalf("Len = %d", got[0].Len())
	}
}

// One repository may back several snapshot lineages (a server gives
// each tenant its own): sealing it again for a new lineage while
// another lineage reads its vocabulary must not race. Run under -race.
func TestVocabularyWhileResealed(t *testing.T) {
	repo := vocabRepo(t)
	first, err := NewSnapshot(repo)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Repository().Vocabulary()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := NewSnapshot(repo); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if v := repo.Vocabulary(); v != want {
				t.Error("a sealed repository rebuilt its vocabulary")
			}
		}()
	}
	wg.Wait()
	if !repo.Sealed() {
		t.Fatal("repository not sealed")
	}
}
