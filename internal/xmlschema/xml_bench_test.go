package xmlschema_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/synth"
	"repro/internal/xmlschema"
)

// BenchmarkReadRepository decodes one full-repository body of 1 300
// synthesized schemas — the size of the big-repo tenant, and what a
// full-repository PUT ships — with the streaming decoder and with the
// reflection reference it replaced.
func BenchmarkReadRepository(b *testing.B) {
	cfg := synth.DefaultConfig(1)
	cfg.NumSchemas = 1300
	sc, err := synth.Generate(synth.PersonalLibrary(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := xmlschema.WriteRepository(&buf, sc.Repo); err != nil {
		b.Fatal(err)
	}
	body := buf.Bytes()
	for _, dec := range []struct {
		name string
		read func(io.Reader) (*xmlschema.Repository, error)
	}{
		{"stream", xmlschema.ReadRepository},
		{"reflect", xmlschema.RefReadRepository},
	} {
		b.Run(dec.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				rep, err := dec.read(bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				if rep.Len() != cfg.NumSchemas {
					b.Fatalf("decoded %d schemas, want %d", rep.Len(), cfg.NumSchemas)
				}
			}
		})
	}
}
