// The benchmark is a module of its own so that the repository's build,
// vet and test commands (`./...` from the root) never see it. The module
// path keeps the `repro/` prefix, which is what lets it import
// repro/internal/...; the replace points at the repository root.
module repro/benchmark

go 1.24

require repro v0.0.0

replace repro => ../
