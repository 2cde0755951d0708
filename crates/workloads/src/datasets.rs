//! Dataset registry (paper Table VI) with synthetic generation, plus a
//! Matrix Market (`.mtx`) loader for real SuiteSparse sparsity patterns.
//!
//! The paper's datasets come from SuiteSparse (PDE matrices) and OMEGA (GNN
//! graphs). We register their published statistics and generate synthetic
//! stand-ins matching `M` and `nnz` (see DESIGN.md §2 — the traffic and
//! roofline study depends only on shapes/footprints, and our SPD generators
//! also let the numeric solvers converge). When an actual SuiteSparse
//! download is at hand, [`load_matrix_market`] parses the standard
//! coordinate format (`real`/`integer`/`pattern` fields, `general`/
//! `symmetric` symmetry) into a [`CsrMatrix`], so CG/HPCG-style DAGs can be
//! built from the *real* sparsity pattern instead of the stand-in —
//! `cello-serve`'s `loadgen --mtx` wires exactly that into its request mix.

use cello_tensor::gen::{random_graph_adjacency, random_spd};
use cello_tensor::sparse::{CooMatrix, CsrMatrix};
use std::fmt;

/// What kind of workload a dataset feeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatasetKind {
    /// PDE-style SPD matrix solved with CG/BiCGStab.
    Pde,
    /// Graph adjacency for a GCN layer, with input/output feature widths.
    Graph {
        /// Input feature width (`N` in Table VI).
        features: u64,
        /// Output feature width (`O`).
        outputs: u64,
    },
}

/// One Table VI dataset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dataset {
    /// SuiteSparse/OMEGA name.
    pub name: &'static str,
    /// Row count (`M`; vertices for graphs).
    pub m: usize,
    /// Published non-zero count.
    pub nnz: usize,
    /// Workload kind.
    pub kind: DatasetKind,
    /// Paper context (Table VI "Workload" column).
    pub workload: &'static str,
}

impl Dataset {
    /// Average non-zeros per row.
    pub fn occupancy(&self) -> f64 {
        self.nnz as f64 / self.m as f64
    }

    /// CSR payload in words: values + column indices + row pointers.
    pub fn csr_payload_words(&self) -> u64 {
        2 * self.nnz as u64 + self.m as u64 + 1
    }

    /// Generates the synthetic stand-in matrix (deterministic per dataset).
    pub fn generate(&self) -> CsrMatrix {
        let seed = self
            .name
            .bytes()
            .fold(0xCE110u64, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
        match self.kind {
            DatasetKind::Pde => random_spd(self.m, self.nnz, seed),
            DatasetKind::Graph { .. } => random_graph_adjacency(self.m, self.nnz, seed),
        }
    }
}

/// `fv1`: the 2D/3D problem matrix (Table VI row 1).
pub const FV1: Dataset = Dataset {
    name: "fv1",
    m: 9604,
    nnz: 85_264,
    kind: DatasetKind::Pde,
    workload: "2D/3D problem",
};

/// `shallow_water1`: computational fluid dynamics (Table VI row 2).
pub const SHALLOW_WATER1: Dataset = Dataset {
    name: "shallow_water1",
    m: 81_920,
    nnz: 327_680,
    kind: DatasetKind::Pde,
    workload: "Fluid Dynamics",
};

/// `G2_circuit`: circuit simulation (Table VI row 3).
pub const G2_CIRCUIT: Dataset = Dataset {
    name: "G2_circuit",
    m: 150_102,
    nnz: 726_674,
    kind: DatasetKind::Pde,
    workload: "Circuit sim",
};

/// `NASA4704`: the BiCGStab structural matrix (Fig 13).
pub const NASA4704: Dataset = Dataset {
    name: "NASA4704",
    m: 4704,
    nnz: 104_756,
    kind: DatasetKind::Pde,
    workload: "Structural (BiCGStab)",
};

/// `cora`: citation-graph GCN layer (Table VI row 4).
pub const CORA: Dataset = Dataset {
    name: "cora",
    m: 2708,
    nnz: 9464,
    kind: DatasetKind::Graph {
        features: 1433,
        outputs: 7,
    },
    workload: "GCN Layer",
};

/// `protein`: protein-graph GCN layer (Table VI row 5).
pub const PROTEIN: Dataset = Dataset {
    name: "protein",
    m: 3786,
    nnz: 14_456,
    kind: DatasetKind::Graph {
        features: 29,
        outputs: 2,
    },
    workload: "GCN Layer",
};

/// Why a Matrix Market file failed to load — a typed error, never a panic:
/// the serving path feeds untrusted files through this parser.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MtxError {
    /// The file could not be read.
    Io(String),
    /// Missing or malformed `%%MatrixMarket` banner.
    BadBanner(String),
    /// An unsupported format/field/symmetry combination (only
    /// `matrix coordinate {real,integer,pattern} {general,symmetric}` is
    /// accepted — `complex`/`hermitian`/`skew-symmetric`/`array` are not
    /// workloads this model runs).
    Unsupported(String),
    /// A malformed size or entry line (1-based line number + complaint).
    Parse {
        /// 1-based line number in the file.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// An entry's coordinates fall outside the declared dimensions.
    OutOfBounds {
        /// 1-based line number in the file.
        line: usize,
        /// The offending (row, col), 1-based as written.
        coord: (usize, usize),
    },
}

impl fmt::Display for MtxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MtxError::Io(e) => write!(f, "cannot read .mtx file: {e}"),
            MtxError::BadBanner(b) => write!(f, "bad MatrixMarket banner: {b:?}"),
            MtxError::Unsupported(what) => write!(f, "unsupported MatrixMarket flavor: {what}"),
            MtxError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
            MtxError::OutOfBounds { line, coord } => {
                write!(
                    f,
                    "line {line}: entry ({}, {}) out of bounds",
                    coord.0, coord.1
                )
            }
        }
    }
}

impl std::error::Error for MtxError {}

/// Parses Matrix Market coordinate text into CSR. Symmetric files must list
/// only the lower triangle (`row ≥ col`, the MM spec's rule) and each
/// off-diagonal entry is mirrored — an upper-triangle entry is a typed
/// [`MtxError::Parse`], because mirroring it *too* would silently double
/// any value the file also lists at the transposed coordinate. `pattern`
/// fields take value 1.0; duplicate coordinates accumulate (the COO
/// builder's semantics, matching the MM spec's "assembled from duplicates"
/// reading). Explicit zeros are dropped during CSR assembly
/// ([`CooMatrix::to_csr`]), so the loaded `nnz()` can sit below the header
/// count — stored structural non-zeros are what every payload/occupancy
/// consumer reads.
pub fn parse_matrix_market(text: &str) -> Result<CsrMatrix, MtxError> {
    let mut lines = text.lines().enumerate();
    let (_, banner) = lines
        .next()
        .ok_or_else(|| MtxError::BadBanner("empty file".into()))?;
    let tokens: Vec<String> = banner.split_whitespace().map(str::to_lowercase).collect();
    if tokens.first().map(String::as_str) != Some("%%matrixmarket") {
        return Err(MtxError::BadBanner(banner.into()));
    }
    if tokens.len() != 5 {
        return Err(MtxError::BadBanner(banner.into()));
    }
    let (object, format, field, symmetry) = (&tokens[1], &tokens[2], &tokens[3], &tokens[4]);
    if object != "matrix" || format != "coordinate" {
        return Err(MtxError::Unsupported(format!("{object} {format}")));
    }
    if !matches!(field.as_str(), "real" | "integer" | "pattern") {
        return Err(MtxError::Unsupported(format!("field {field}")));
    }
    let symmetric = match symmetry.as_str() {
        "general" => false,
        "symmetric" => true,
        other => return Err(MtxError::Unsupported(format!("symmetry {other}"))),
    };
    let pattern = field == "pattern";

    // Size line: first non-comment, non-blank line after the banner.
    let mut size: Option<(usize, usize, usize, usize)> = None; // rows, cols, nnz, line no
    let mut coo: Option<CooMatrix> = None;
    let mut seen = 0usize;
    for (idx, raw) in lines {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match size {
            None => {
                if fields.len() != 3 {
                    return Err(MtxError::Parse {
                        line: line_no,
                        msg: format!("size line needs 'rows cols nnz', got {line:?}"),
                    });
                }
                let parse = |s: &str| -> Result<usize, MtxError> {
                    s.parse().map_err(|_| MtxError::Parse {
                        line: line_no,
                        msg: format!("bad size {s:?}"),
                    })
                };
                let (r, c, n) = (parse(fields[0])?, parse(fields[1])?, parse(fields[2])?);
                size = Some((r, c, n, line_no));
                coo = Some(CooMatrix::new(r, c));
            }
            Some((rows, cols, declared, _)) => {
                let want = if pattern { 2 } else { 3 };
                if fields.len() < want {
                    return Err(MtxError::Parse {
                        line: line_no,
                        msg: format!("entry needs {want} fields, got {line:?}"),
                    });
                }
                let coord = |s: &str| -> Result<usize, MtxError> {
                    let v: usize = s.parse().map_err(|_| MtxError::Parse {
                        line: line_no,
                        msg: format!("bad index {s:?}"),
                    })?;
                    if v == 0 {
                        return Err(MtxError::Parse {
                            line: line_no,
                            msg: "indices are 1-based; found 0".into(),
                        });
                    }
                    Ok(v)
                };
                let (r1, c1) = (coord(fields[0])?, coord(fields[1])?);
                if r1 > rows || c1 > cols {
                    return Err(MtxError::OutOfBounds {
                        line: line_no,
                        coord: (r1, c1),
                    });
                }
                let value = if pattern {
                    1.0
                } else {
                    fields[2].parse::<f64>().map_err(|_| MtxError::Parse {
                        line: line_no,
                        msg: format!("bad value {:?}", fields[2]),
                    })?
                };
                seen += 1;
                if seen > declared {
                    return Err(MtxError::Parse {
                        line: line_no,
                        msg: format!("more than the declared {declared} entries"),
                    });
                }
                if symmetric && c1 > r1 {
                    return Err(MtxError::Parse {
                        line: line_no,
                        msg: format!(
                            "symmetric files store the lower triangle only; \
                             entry ({r1}, {c1}) is above the diagonal"
                        ),
                    });
                }
                let builder = coo.as_mut().expect("size parsed before entries");
                builder.push(r1 - 1, c1 - 1, value);
                if symmetric && r1 != c1 {
                    builder.push(c1 - 1, r1 - 1, value);
                }
            }
        }
    }
    let Some((_, _, declared, size_line)) = size else {
        return Err(MtxError::Parse {
            line: 1,
            msg: "no size line".into(),
        });
    };
    if seen != declared {
        return Err(MtxError::Parse {
            line: size_line,
            msg: format!("declared {declared} entries, file has {seen}"),
        });
    }
    Ok(coo.expect("built alongside size").to_csr())
}

/// Reads and parses a `.mtx` file from disk.
pub fn load_matrix_market(path: &std::path::Path) -> Result<CsrMatrix, MtxError> {
    let text = std::fs::read_to_string(path).map_err(|e| MtxError::Io(format!("{path:?}: {e}")))?;
    parse_matrix_market(&text)
}

/// Renders a CSR matrix as Matrix Market coordinate text — the round-trip
/// partner of [`parse_matrix_market`], also used to produce the checked-in
/// samples under `data/`. Exactly-symmetric matrices (`is_symmetric(0.0)`)
/// are written in the `symmetric` flavor with the lower triangle only —
/// halving on-disk nnz and matching the MM spec's storage rule — and
/// everything else as `general`.
pub fn write_matrix_market(a: &CsrMatrix) -> String {
    use std::fmt::Write as _;
    let symmetric = a.is_symmetric(0.0);
    let mut out = String::new();
    let flavor = if symmetric { "symmetric" } else { "general" };
    let _ = writeln!(out, "%%MatrixMarket matrix coordinate real {flavor}");
    let _ = writeln!(out, "% written by cello-workloads");
    let stored = if symmetric {
        // Lower triangle (incl. diagonal) only.
        (0..a.rows())
            .map(|r| a.row(r).filter(|&(c, _)| c <= r).count())
            .sum()
    } else {
        a.nnz()
    };
    let _ = writeln!(out, "{} {} {stored}", a.rows(), a.cols());
    for r in 0..a.rows() {
        for (c, v) in a.row(r) {
            if symmetric && c > r {
                continue;
            }
            let _ = writeln!(out, "{} {} {v:?}", r + 1, c + 1);
        }
    }
    out
}

/// Every Table VI dataset.
pub fn registry() -> Vec<Dataset> {
    vec![FV1, SHALLOW_WATER1, G2_CIRCUIT, NASA4704, CORA, PROTEIN]
}

/// The CG performance datasets (Fig 12).
pub fn cg_datasets() -> Vec<Dataset> {
    vec![FV1, SHALLOW_WATER1, G2_CIRCUIT]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table_vi() {
        let r = registry();
        assert_eq!(r.len(), 6);
        assert_eq!(FV1.m, 9604);
        assert_eq!(FV1.nnz, 85_264);
        assert_eq!(SHALLOW_WATER1.m, 81_920);
        assert_eq!(G2_CIRCUIT.nnz, 726_674);
        assert_eq!(
            CORA.kind,
            DatasetKind::Graph {
                features: 1433,
                outputs: 7
            }
        );
    }

    #[test]
    fn occupancy_in_paper_range() {
        // "occupancy of 1-100 non-zeros per row" (§III-A).
        for d in registry() {
            let occ = d.occupancy();
            assert!((1.0..=100.0).contains(&occ), "{}: {occ}", d.name);
        }
    }

    #[test]
    fn generated_stats_match_registry() {
        for d in [FV1, PROTEIN] {
            let a = d.generate();
            assert_eq!(a.rows(), d.m);
            let err = (a.nnz() as f64 - d.nnz as f64).abs() / d.nnz as f64;
            assert!(err < 0.05, "{}: nnz {} vs {}", d.name, a.nnz(), d.nnz);
            assert!(a.is_symmetric(1e-12), "{} must be symmetric", d.name);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(FV1.generate(), FV1.generate());
    }

    #[test]
    fn payload_includes_metadata() {
        assert_eq!(FV1.csr_payload_words(), 2 * 85_264 + 9604 + 1);
    }

    #[test]
    fn mtx_round_trips_generated_matrices() {
        let a = FV1.generate();
        let back = parse_matrix_market(&write_matrix_market(&a)).unwrap();
        assert_eq!(a, back);
    }

    /// The writer emits the `symmetric` flavor (lower triangle only) for
    /// exactly-symmetric matrices — halving on-disk entries — and still
    /// round-trips; asymmetric matrices keep the `general` flavor.
    #[test]
    fn mtx_writer_emits_symmetric_flavor() {
        let a = FV1.generate();
        assert!(a.is_symmetric(0.0));
        let text = write_matrix_market(&a);
        assert!(
            text.starts_with("%%MatrixMarket matrix coordinate real symmetric"),
            "symmetric matrices use the symmetric flavor"
        );
        // On-disk entries = diagonal + half the off-diagonals < nnz.
        let declared: usize = text
            .lines()
            .find(|l| !l.starts_with('%'))
            .unwrap()
            .split_whitespace()
            .nth(2)
            .unwrap()
            .parse()
            .unwrap();
        assert!(declared < a.nnz(), "{declared} !< {}", a.nnz());
        assert_eq!(parse_matrix_market(&text).unwrap(), a, "round-trip");
        // Asymmetric matrices stay `general` and round-trip too.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 3.0);
        coo.push(1, 1, 1.0);
        let b = coo.to_csr();
        let text = write_matrix_market(&b);
        assert!(text.starts_with("%%MatrixMarket matrix coordinate real general"));
        assert_eq!(parse_matrix_market(&text).unwrap(), b);
    }

    /// Regression (symmetric double-mirroring): a symmetric file listing an
    /// upper-triangle entry used to get it mirrored *again*, silently
    /// doubling values when the transposed coordinate was also listed. The
    /// MM spec's lower-triangle-only rule is now enforced as a typed error.
    #[test]
    fn mtx_rejects_upper_triangle_in_symmetric_files() {
        // Both (2,1) and (1,2) listed: previously parsed to a doubled value.
        let invalid = "%%MatrixMarket matrix coordinate real symmetric\n\
                       2 2 3\n1 1 2.0\n2 1 -1.0\n1 2 -1.0\n";
        match parse_matrix_market(invalid) {
            Err(MtxError::Parse { line: 5, msg }) => {
                assert!(msg.contains("lower triangle"), "{msg}")
            }
            other => panic!("expected Parse error on line 5, got {other:?}"),
        }
        // Even a lone upper-triangle entry is rejected: it is invalid MM.
        let lone = "%%MatrixMarket matrix coordinate real symmetric\n\
                    2 2 2\n1 1 2.0\n1 2 -1.0\n";
        assert!(matches!(
            parse_matrix_market(lone),
            Err(MtxError::Parse { line: 4, .. })
        ));
        // General files keep accepting any coordinate order.
        let general = "%%MatrixMarket matrix coordinate real general\n\
                       2 2 2\n1 2 -1.0\n2 1 -1.0\n";
        assert_eq!(parse_matrix_market(general).unwrap().nnz(), 2);
    }

    /// Explicit zeros are dropped during CSR assembly: the loaded matrix
    /// reports its *structural* nnz, below the header count, and payload
    /// math follows the stored count, not the header.
    #[test]
    fn mtx_explicit_zeros_drop_from_stored_nnz() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    2 2 3\n1 1 4.0\n1 2 0.0\n2 2 1.0\n";
        let a = parse_matrix_market(text).unwrap();
        assert_eq!(a.nnz(), 2, "explicit zero is not stored");
        assert_eq!(a.get(0, 1), 0.0);
        // Payload accounting uses actual nnz(): 2 values + 2 col indices
        // + 3 row pointers.
        assert_eq!(a.payload_words(), 2 * 2 + 2 + 1);
    }

    #[test]
    fn mtx_parses_symmetric_and_pattern_flavors() {
        // Symmetric: lower triangle given, mirror implied.
        let sym = "%%MatrixMarket matrix coordinate real symmetric\n\
                   % a comment\n\
                   3 3 4\n1 1 2.0\n2 1 -1.0\n2 2 2.0\n3 3 1.5\n";
        let a = parse_matrix_market(sym).unwrap();
        assert_eq!(a.rows(), 3);
        assert_eq!(a.nnz(), 5, "one mirrored off-diagonal");
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.get(0, 1), -1.0, "mirrored");
        assert!(a.is_symmetric(0.0));
        // Pattern: entries take value 1.0.
        let pat = "%%MatrixMarket matrix coordinate pattern general\n2 2 3\n1 1\n1 2\n2 2\n";
        let p = parse_matrix_market(pat).unwrap();
        assert_eq!(p.nnz(), 3);
        assert_eq!(p.get(0, 1), 1.0);
        // Integer field parses as real.
        let int = "%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 7\n";
        assert_eq!(parse_matrix_market(int).unwrap().get(0, 0), 7.0);
    }

    /// Malformed files land in typed errors, never panics — the serve
    /// request path feeds untrusted files through here.
    #[test]
    fn mtx_rejects_malformed_files_with_typed_errors() {
        type Matcher = fn(&MtxError) -> bool;
        let cases: Vec<(&str, Matcher)> = vec![
            ("", |e| matches!(e, MtxError::BadBanner(_))),
            ("%%MatrixMarket matrix array real general\n", |e| {
                matches!(e, MtxError::Unsupported(_))
            }),
            (
                "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
                |e| matches!(e, MtxError::Unsupported(_)),
            ),
            (
                "%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 1\n1 1 1\n",
                |e| matches!(e, MtxError::Unsupported(_)),
            ),
            (
                "%%MatrixMarket matrix coordinate real general\nnot a size\n",
                |e| matches!(e, MtxError::Parse { .. }),
            ),
            (
                "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 5.0\n",
                |e| matches!(e, MtxError::OutOfBounds { line: 3, .. }),
            ),
            (
                "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 5.0\n",
                |e| matches!(e, MtxError::Parse { .. }),
            ),
            (
                "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5.0\n",
                |e| matches!(e, MtxError::Parse { .. }),
            ),
            (
                "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 x\n",
                |e| matches!(e, MtxError::Parse { .. }),
            ),
        ];
        for (text, matches) in cases {
            let err = parse_matrix_market(text).expect_err(text);
            assert!(matches(&err), "{text:?} -> {err}");
        }
        assert!(matches!(
            load_matrix_market(std::path::Path::new("/no/such/file.mtx")),
            Err(MtxError::Io(_))
        ));
    }
}
