// Package ctpquery is a Go reproduction of "Integrating connection search
// in graph queries" (Anadiotis, Manolescu, Mohanty; ICDE 2023): an
// Extended Query Language that joins conjunctive graph patterns with
// Connecting Tree Patterns — "how are these m groups of nodes connected?"
// — and the family of CTP evaluation algorithms the paper studies,
// culminating in MoLESP.
//
// This package is the public facade: build or load a Graph, Open a DB
// over it, and run EQL text through Query/Run (or QueryStream, to watch
// connecting trees surface as the search finds them). The algorithm
// implementations live under internal/ — see DESIGN.md for the module
// map and README.md for the EQL language reference.
//
// Entry points: cmd/ctpserve serves concurrent EQL queries over HTTP,
// cmd/eqlrun executes a single query from the command line, cmd/graphgen
// generates graphs, and cmd/expdriver drives the paper's experiments;
// examples/ holds runnable walkthroughs, starting with
// examples/quickstart.
package ctpquery
