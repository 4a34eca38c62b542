// Package repro is a from-scratch Go reproduction of
//
//	M. Smiljanić, M. van Keulen, W. Jonker.
//	"Effectiveness Bounds for Non-Exhaustive Schema Matching Systems."
//	ICDE 2006.
//
// The library computes guaranteed lower and upper bounds on the
// precision and recall of a non-exhaustive improvement of an
// exhaustive schema matching system, using only the original system's
// P/R curve and the answer-set sizes of both systems — no human
// relevance judgments.
//
// The public entry point is the repro/match package: a long-lived
// Service built once over a schema repository, serving concurrent
// context-aware Match(ctx, Request) calls with per-request stats and
// guaranteed bounds attached to non-exhaustive results. Every
// substrate the paper depends on (XML schema model, similarity
// measures, the shared scoring engine, exhaustive and non-exhaustive
// matchers, clustering, synthetic corpora with planted truth, and the
// P/R evaluation machinery) is implemented under internal/ with the
// standard library only. For callers outside the process, cmd/matchd
// serves a multi-tenant match.Server over HTTP (internal/httpserve:
// JSON wire protocol, bearer auth, deadline propagation, Prometheus
// metrics, graceful drain).
//
// See README.md for a package tour and how to regenerate the paper's
// figures. The root package holds the benchmark harness
// (bench_test.go): one benchmark per reproduced figure, matcher and
// bounds ablations, and the scoring-engine build-and-match benchmark;
// `make bench-smoke` runs each for one iteration as a rot check.
package repro
