package kiff

// Facade over the zero-copy load path (see internal/arena's View and
// Mapping): a serving process maps a built KFG1/KFD1 checkpoint instead
// of copying it through the heap. Loading allocates O(|U|) row headers
// while the edge and profile payload stays in the mapping, cold start is
// bounded by one sequential checksum pass, and the kernel page cache
// backing the mapping is shared by every process serving the same files.

import (
	"kiff/internal/dataset"
	"kiff/internal/knngraph"
)

// MappedGraph is a Graph backed by a file mapping. Graph() is valid until
// Close; see LoadGraphMapped.
type MappedGraph = knngraph.Mapped

// MappedDataset is a Dataset backed by a file mapping. Dataset() is valid
// until Close; see LoadDatasetMapped.
type MappedDataset = dataset.Mapped

// LoadGraphMapped memory-maps a file written by SaveGraph and decodes the
// graph in place: neighbor lists are views into the mapping, so the load
// allocates O(|U|) row headers and the edge payload stays mapped (on
// platforms without mmap the file is transparently read to the heap
// instead — same semantics, no sharing). The mapped graph answers every query
// bit-identically to LoadGraph.
//
// Close the returned handle only after the last reader of the Graph is
// done; for a long-lived server, simply never close it.
func LoadGraphMapped(path string) (*MappedGraph, error) {
	return knngraph.OpenMapped(path)
}

// LoadDatasetMapped memory-maps a file written by SaveDataset and decodes
// the dataset in place: profile ID and rating arenas are views into the
// mapping; only per-user headers and the lazily built item index live on
// the heap. Copy-on-write mutations (AddUser, AddRating — e.g. through a
// Maintainer) are safe: they allocate fresh rows and never write through
// the mapping.
func LoadDatasetMapped(path string) (*MappedDataset, error) {
	return dataset.OpenMapped(path)
}
