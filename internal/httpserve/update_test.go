package httpserve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/xmlschema"
	"repro/match"
)

// recordingStore is a match.TenantStore that records every appended
// diff instead of persisting it.
type recordingStore struct {
	mu      sync.Mutex
	appends []xmlschema.Diff
}

func (r *recordingStore) SaveBase(uint64, *xmlschema.Repository) error { return nil }

func (r *recordingStore) AppendDiff(_ *xmlschema.Snapshot, d xmlschema.Diff) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.appends = append(r.appends, d)
	return nil
}

func (r *recordingStore) diffs() []xmlschema.Diff {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]xmlschema.Diff(nil), r.appends...)
}

// putRepository PUTs repo as tenant's repository and returns the
// response status and the version it reports.
func putRepository(t *testing.T, url, token, tenant string, repo *xmlschema.Repository) (int, uint64) {
	t.Helper()
	body, err := marshalRepository(repo)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, url+"/admin/v1/tenants/"+tenant, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("Content-Type", "application/xml")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Version uint64 `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out.Version
}

// edited returns a copy of s with edit applied to the copy's tree.
func edited(t *testing.T, s *xmlschema.Schema, edit func(root *xmlschema.Element)) *xmlschema.Schema {
	t.Helper()
	root := s.Clone().Root()
	edit(root)
	out, err := xmlschema.NewSchema(s.Name, root)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// answerBits renders an answer set exactly: schema, targets and the
// score's bits, in rank order.
func answerBits(res *match.Result) string {
	var b strings.Builder
	for _, a := range res.Set.All() {
		fmt.Fprintf(&b, "%s%v:%016x ", a.Mapping.Schema, a.Mapping.Targets, math.Float64bits(a.Score))
	}
	return b.String()
}

// TestUpdateDiffsContent: a full-repository PUT replaces only the
// schemas whose content changed. Unchanged schemas keep their served
// *Schema, the durable append carries exactly the changed ones, an
// identical PUT changes nothing, and the updated tenant answers every
// matcher family exactly as a server built fresh over the same
// repository.
func TestUpdateDiffsContent(t *testing.T) {
	fleet := testFleet(t, 31, 1, 2, 16)
	tn := fleet[0]
	rec := &recordingStore{}
	auth := &AuthConfig{AdminTokens: []string{"a"}}
	srv, ts := newTestServer(t, fleet, Config{Auth: auth},
		match.WithServerStore(func(string) match.TenantStore { return rec }))
	ctx := context.Background()
	specs := []string{"exhaustive", "parallel", "topk:0.035", "clustered", "beam:16"}
	// Warm every family first, so the updates carry built indexes and
	// patch resident sessions instead of starting cold.
	for _, p := range tn.Personals() {
		for _, spec := range specs {
			if _, err := srv.Match(ctx, tn.Name, match.Request{Personal: p, Delta: 0.45, Matcher: spec}); err != nil {
				t.Fatal(err)
			}
		}
	}
	svc, err := srv.Service(tn.Name)
	if err != nil {
		t.Fatal(err)
	}

	// put ships body, checks that exactly the named schemas were
	// replaced (appended as one diff, or no append when none), and
	// that every other schema kept its served pointer.
	put := func(t *testing.T, body *xmlschema.Repository, changed ...string) {
		t.Helper()
		before := svc.Snapshot()
		appends := len(rec.diffs())
		status, version := putRepository(t, ts.URL, "a", tn.Name, body)
		if status != http.StatusOK {
			t.Fatalf("PUT status %d", status)
		}
		after := svc.Snapshot()
		diffs := rec.diffs()[appends:]
		if len(changed) == 0 {
			if after != before || version != before.Version() || len(diffs) != 0 {
				t.Fatalf("identical PUT: version %d → %d (reported %d), %d appends; want a no-op",
					before.Version(), after.Version(), version, len(diffs))
			}
			return
		}
		if version != after.Version() || version <= before.Version() {
			t.Fatalf("PUT reported version %d; served %d, was %d", version, after.Version(), before.Version())
		}
		if len(diffs) != 1 {
			t.Fatalf("%d appends, want 1", len(diffs))
		}
		d := diffs[0]
		var got []string
		for _, ch := range d.Replaced {
			got = append(got, ch.New.Name)
		}
		if len(d.Added) != 0 || len(d.Removed) != 0 || fmt.Sprint(got) != fmt.Sprint(changed) {
			t.Fatalf("diff: %d added, %d removed, replaced %v; want replaced %v only",
				len(d.Added), len(d.Removed), got, changed)
		}
		isChanged := map[string]bool{}
		for _, n := range changed {
			isChanged[n] = true
		}
		for _, s := range before.Schemas() {
			if kept := after.Schema(s.Name) == s; kept == isChanged[s.Name] {
				t.Fatalf("schema %s: pointer kept %v, changed %v", s.Name, kept, isChanged[s.Name])
			}
		}
	}

	schemas := tn.Repo().Schemas()
	body := func(subst map[string]*xmlschema.Schema) *xmlschema.Repository {
		repo := xmlschema.NewRepository()
		for _, s := range svc.Snapshot().Schemas() {
			if r := subst[s.Name]; r != nil {
				s = r
			}
			if err := repo.Add(s.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		return repo
	}

	// k = 3 of 16, edits that keep the set of distinct names: two leaf
	// names swapped, the root's children reversed, and a copy of the
	// root's first subtree appended.
	swapped := edited(t, schemas[1], func(root *xmlschema.Element) {
		var leaves []*xmlschema.Element
		root.Walk(func(e *xmlschema.Element) bool {
			if e.IsLeaf() && (len(leaves) == 0 || e.Name != leaves[0].Name) {
				leaves = append(leaves, e)
			}
			return len(leaves) < 2
		})
		leaves[0].Name, leaves[1].Name = leaves[1].Name, leaves[0].Name
	})
	reversed := edited(t, schemas[6], func(root *xmlschema.Element) {
		c := root.Children
		for i, j := 0, len(c)-1; i < j; i, j = i+1, j-1 {
			c[i], c[j] = c[j], c[i]
		}
	})
	grown := edited(t, schemas[11], func(root *xmlschema.Element) {
		root.Add(copyTree(root.Children[0]))
	})
	for i, s := range []*xmlschema.Schema{swapped, reversed, grown} {
		if xmlschema.Equal(s.Root(), svc.Snapshot().Schema(s.Name).Root()) {
			t.Fatalf("fixture: edit %d left %s unchanged", i, s.Name)
		}
	}
	put(t, body(map[string]*xmlschema.Schema{
		schemas[1].Name: swapped, schemas[6].Name: reversed, schemas[11].Name: grown,
	}), schemas[1].Name, schemas[6].Name, schemas[11].Name)

	// A type alone is content.
	retyped := edited(t, schemas[3], func(root *xmlschema.Element) {
		root.Walk(func(e *xmlschema.Element) bool {
			if e.IsLeaf() {
				e.Type += "_v2"
				return false
			}
			return true
		})
	})
	put(t, body(map[string]*xmlschema.Schema{schemas[3].Name: retyped}), schemas[3].Name)

	// The served repository, shipped back: 200, same version, no append.
	put(t, body(nil))
	sameAsFresh(t, srv, tn.Name, tn.Personals(), specs)

	// A name the repository never held. The clustered index assigns a
	// new name to its nearest medoid (clustered.Index.Apply) where a
	// fresh build re-clusters the whole vocabulary, so from here on
	// only the exact families and beam are compared.
	extended := edited(t, schemas[8], func(root *xmlschema.Element) {
		root.Add(xmlschema.NewElement("neverseen"))
	})
	put(t, body(map[string]*xmlschema.Schema{schemas[8].Name: extended}), schemas[8].Name)
	sameAsFresh(t, srv, tn.Name, tn.Personals(), []string{"exhaustive", "parallel", "topk:0.035", "beam:16"})
}

// copyTree returns a deep copy of the subtree under e.
func copyTree(e *xmlschema.Element) *xmlschema.Element {
	c := &xmlschema.Element{Name: e.Name, Type: e.Type}
	for _, ch := range e.Children {
		c.Children = append(c.Children, copyTree(ch))
	}
	return c
}

// sameAsFresh checks that tenant answers every spec for every personal
// bit-identically to a server built fresh over the tenant's served
// repository.
func sameAsFresh(t *testing.T, srv *match.Server, tenant string, personals []*xmlschema.Schema, specs []string) {
	t.Helper()
	svc, err := srv.Service(tenant)
	if err != nil {
		t.Fatal(err)
	}
	served := xmlschema.NewRepository()
	for _, s := range svc.Snapshot().Schemas() {
		if err := served.Add(s.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	fresh := match.NewServer()
	defer fresh.Close()
	if err := fresh.AddTenant(tenant, served); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, p := range personals {
		for _, spec := range specs {
			req := match.Request{Personal: p, Delta: 0.45, Matcher: spec}
			got, err := srv.Match(ctx, tenant, req)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Match(ctx, tenant, req)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := answerBits(got), answerBits(want); g != w {
				t.Errorf("%s %s: updated tenant answers\n%s\nfresh server answers\n%s", p.Name, spec, g, w)
			}
		}
	}
}

// TestAdminBodyTooLarge: a repository body over the size limit is
// refused with 413 too_large on both admin routes — the streaming
// decoder must surface the body reader's *http.MaxBytesError — and
// the tenant is left as it was.
func TestAdminBodyTooLarge(t *testing.T) {
	fleet := testFleet(t, 32, 2, 1, 12)
	auth := &AuthConfig{AdminTokens: []string{"a"}}
	srv, ts := newTestServer(t, fleet[:1], Config{Auth: auth, MaxBodyBytes: 4096})
	admin := NewClient(ts.URL, "a")
	defer admin.Close()
	ctx := context.Background()
	tenant := fleet[0].Name
	before, err := srv.TenantStats(tenant)
	if err != nil {
		t.Fatal(err)
	}
	if body, err := marshalRepository(fleet[0].Repo()); err != nil || len(body) <= 4096 {
		t.Fatalf("fixture: body of %d bytes (err %v), want over the 4096-byte limit", len(body), err)
	}
	for _, tc := range []struct {
		route string
		call  func() error
	}{
		{"PUT", func() error { return admin.UpdateTenant(ctx, tenant, fleet[0].Repo()) }},
		{"POST", func() error { return admin.RegisterTenant(ctx, fleet[1].Name, fleet[1].Repo()) }},
	} {
		var ae *APIError
		if err := tc.call(); !asAPIErr(err, &ae) || ae.StatusCode != http.StatusRequestEntityTooLarge || ae.Code != CodeTooLarge {
			t.Fatalf("%s: want 413 %s, got %v", tc.route, CodeTooLarge, err)
		}
	}
	after, err := srv.TenantStats(tenant)
	if err != nil {
		t.Fatal(err)
	}
	if after.Version != before.Version {
		t.Fatalf("refused PUT moved the version %d → %d", before.Version, after.Version)
	}
	if got := srv.Tenants(); len(got) != 1 {
		t.Fatalf("refused POST registered a tenant: %v", got)
	}
}
