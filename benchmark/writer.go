package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/stats"
	"repro/internal/xmlschema"
)

// mirror is the client's copy of one tenant repository: the state the
// daemon must serve once the writes it was sent have landed.
type mirror struct {
	names   []string
	schemas map[string]*xmlschema.Schema
}

func newMirror(repo *xmlschema.Repository) *mirror {
	m := &mirror{schemas: make(map[string]*xmlschema.Schema, repo.Len())}
	for _, s := range repo.Schemas() {
		m.names = append(m.names, s.Name)
		m.schemas[s.Name] = s
	}
	return m
}

func (m *mirror) repo() (*xmlschema.Repository, error) {
	repo := xmlschema.NewRepository()
	for _, n := range m.names {
		if err := repo.Add(m.schemas[n]); err != nil {
			return nil, err
		}
	}
	return repo, nil
}

// replacedPerWrite is how many schemas each PUT changes.
const replacedPerWrite = 3

// writePlan deals a seeded sequence of full-repository PUTs,
// alternating tenants, each replacing replacedPerWrite schemas with
// copies that carry one renamed element. A PUT's body is encoded when
// it is dealt, so its latency is the daemon's, not the client's XML
// encoder's.
type writePlan struct {
	tenants []string
	mirrors []*mirror
	rng     *stats.RNG
	dealt   int
}

type put struct {
	ti     int // tenant index
	tenant string
	repo   *xmlschema.Repository
	body   []byte
}

func newWritePlan(c *corpus) *writePlan {
	wp := &writePlan{rng: stats.NewRNG(c.seed ^ 0x7772697465)} // "write"
	for _, tn := range c.fleet {
		wp.tenants = append(wp.tenants, tn.Name)
		wp.mirrors = append(wp.mirrors, newMirror(tn.Repo()))
	}
	return wp
}

// next deals the next PUT and applies it to the mirror.
func (wp *writePlan) next() (put, error) {
	ti := wp.dealt % len(wp.mirrors)
	wp.dealt++
	m := wp.mirrors[ti]
	for k := 0; k < replacedPerWrite; k++ {
		victim := m.schemas[m.names[wp.rng.Intn(len(m.names))]]
		clone := victim.Clone()
		clone.ByID(wp.rng.Intn(clone.Len())).Name += "x"
		s, err := xmlschema.NewSchema(victim.Name, clone.Root())
		if err != nil {
			return put{}, err
		}
		m.schemas[s.Name] = s
	}
	repo, err := m.repo()
	if err != nil {
		return put{}, err
	}
	var buf bytes.Buffer
	if err := xmlschema.WriteRepository(&buf, repo); err != nil {
		return put{}, err
	}
	return put{ti: ti, tenant: wp.tenants[ti], repo: repo, body: buf.Bytes()}, nil
}

// repos returns every tenant's repository as of the last PUT dealt,
// the state the daemon serves once those PUTs have landed.
func (wp *writePlan) repos() ([]*xmlschema.Repository, error) {
	out := make([]*xmlschema.Repository, len(wp.mirrors))
	for i, m := range wp.mirrors {
		var err error
		if out[i], err = m.repo(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// putClient sends the plan's PUTs over one connection of its own.
type putClient struct {
	base string
	hc   *http.Client
}

func newPutClient(addr string) *putClient {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConnsPerHost: 1,
	}
	return &putClient{base: "http://" + addr, hc: &http.Client{Transport: tr}}
}

// send PUTs one prepared body and reads the ack.
func (pc *putClient) send(ctx context.Context, tenant string, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, pc.base+"/admin/v1/tenants/"+tenant, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/xml")
	req.Header.Set("Authorization", "Bearer "+adminToken)
	resp, err := pc.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	ack, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("PUT %s: %s: %s", tenant, resp.Status, bytes.TrimSpace(ack))
	}
	return nil
}

func (pc *putClient) close() { pc.hc.CloseIdleConnections() }
