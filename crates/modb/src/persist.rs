//! Line-oriented text persistence for MOD contents.
//!
//! Workload snapshots are saved in a simple, diff-friendly format so the
//! experiments of §5 are replayable byte-for-byte:
//!
//! ```text
//! # unn-modb v1
//! OBJ <oid> <radius> U            # uniform pdf
//! OBJ <oid> <radius> G <sigma>    # truncated Gaussian pdf
//! PT <x> <y> <t>                  # samples of the preceding OBJ
//! ```
//!
//! Floats are written with Rust's shortest round-trip formatting, so a
//! save/load cycle reproduces the exact same `f64`s. This is the
//! import/export format (`unn-cli load` / `save`); nothing in the
//! serving path reads it.
//!
//! ## Text checkpoint images (read-only, for conversion)
//!
//! Before the binary checkpoint image ([`crate::durability`], "Checkpoint
//! image") a WAL directory's `snapshot.unn` was this text format plus
//! one record, the epoch watermark:
//!
//! ```text
//! # unn-modb v2
//! EPOCH <epoch>                   # commit epoch the image is current at
//! OBJ/PT records as in v1
//! ```
//!
//! [`load_image`] still reads it (a file without an `EPOCH` record is an
//! image at epoch 0) so that `unn-cli store convert <dir>`
//! ([`crate::durability::convert_text_image`]) can rewrite an old
//! directory once; recovery itself refuses a text image.

use crate::store::ModStore;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use unn_prob::pdf::PdfKind;
use unn_traj::trajectory::{Oid, Trajectory, TrajectorySample};
use unn_traj::uncertain::UncertainTrajectory;

/// Errors raised by persistence operations.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem in the file.
    Format {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::Format { line, message } => {
                write!(f, "format error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Format { .. } => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// What a text checkpoint image carries: the store's contents and the
/// commit epoch they are current at.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreImage {
    /// The commit epoch the objects are current at (the recovery
    /// watermark: WAL frames at or below it are already folded in).
    pub epoch: u64,
    /// Every stored trajectory, in file order.
    pub objects: Vec<UncertainTrajectory>,
}

/// Serializes trajectories to a writer.
pub fn save_to<W: Write>(trs: &[UncertainTrajectory], w: &mut W) -> Result<(), PersistError> {
    writeln!(w, "# unn-modb v1")?;
    for tr in trs {
        match tr.pdf() {
            PdfKind::Uniform { .. } => {
                writeln!(w, "OBJ {} {} U", tr.oid().0, tr.radius())?;
            }
            PdfKind::TruncatedGaussian { sigma, .. } => {
                writeln!(w, "OBJ {} {} G {}", tr.oid().0, tr.radius(), sigma)?;
            }
        }
        for s in tr.trajectory().samples() {
            writeln!(w, "PT {} {} {}", s.position.x, s.position.y, s.time)?;
        }
    }
    Ok(())
}

/// Saves the full contents of a store to `path`.
pub fn save(store: &ModStore, path: &Path) -> Result<(), PersistError> {
    let mut w = BufWriter::new(File::create(path)?);
    save_to(&store.snapshot(), &mut w)
}

/// Deserializes trajectories from a reader.
pub fn load_from<R: BufRead>(r: R) -> Result<Vec<UncertainTrajectory>, PersistError> {
    let mut objs = ObjectLines::default();
    for (ln, line) in r.lines().enumerate() {
        let line = line?;
        let lineno = ln + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let record = parts.next().expect("non-empty line has a first token");
        objs.line(record, parts, lineno)?;
    }
    objs.finish()
}

/// Loads trajectories from `path`.
pub fn load(path: &Path) -> Result<Vec<UncertainTrajectory>, PersistError> {
    load_from(BufReader::new(File::open(path)?))
}

/// Deserializes a text checkpoint image: the v1 records plus at most
/// one `EPOCH` record (absent means epoch 0).
pub fn load_image_from<R: BufRead>(r: R) -> Result<StoreImage, PersistError> {
    let mut epoch = None;
    let mut objs = ObjectLines::default();
    for (ln, line) in r.lines().enumerate() {
        let line = line?;
        let lineno = ln + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next().expect("non-empty line has a first token") {
            "EPOCH" => {
                if epoch.is_some() {
                    return Err(PersistError::Format {
                        line: lineno,
                        message: "duplicate EPOCH record".to_string(),
                    });
                }
                epoch = Some(parse_field(parts.next(), lineno, "epoch")?);
            }
            record => objs.line(record, parts, lineno)?,
        }
    }
    Ok(StoreImage {
        epoch: epoch.unwrap_or(0),
        objects: objs.finish()?,
    })
}

/// Loads a text checkpoint image from `path`.
pub fn load_image(path: &Path) -> Result<StoreImage, PersistError> {
    load_image_from(BufReader::new(File::open(path)?))
}

/// The `OBJ` / `PT` state machine shared by [`load_from`] and
/// [`load_image_from`].
#[derive(Default)]
struct ObjectLines {
    current: Option<(Oid, f64, PdfKind, Vec<TrajectorySample>)>,
    out: Vec<UncertainTrajectory>,
}

impl ObjectLines {
    fn line<'a>(
        &mut self,
        record: &str,
        mut parts: impl Iterator<Item = &'a str>,
        lineno: usize,
    ) -> Result<(), PersistError> {
        match record {
            "OBJ" => {
                if let Some(obj) = self.current.take() {
                    self.out.push(finish(obj, lineno)?);
                }
                let oid: u64 = parse_field(parts.next(), lineno, "oid")?;
                let radius: f64 = parse_field(parts.next(), lineno, "radius")?;
                let pdf = match parts.next() {
                    Some("U") => PdfKind::Uniform { radius },
                    Some("G") => {
                        let sigma: f64 = parse_field(parts.next(), lineno, "sigma")?;
                        PdfKind::TruncatedGaussian { radius, sigma }
                    }
                    other => {
                        return Err(PersistError::Format {
                            line: lineno,
                            message: format!("unknown pdf tag {other:?}"),
                        })
                    }
                };
                self.current = Some((Oid(oid), radius, pdf, Vec::new()));
            }
            "PT" => {
                let x: f64 = parse_field(parts.next(), lineno, "x")?;
                let y: f64 = parse_field(parts.next(), lineno, "y")?;
                let t: f64 = parse_field(parts.next(), lineno, "t")?;
                match &mut self.current {
                    Some((_, _, _, samples)) => samples.push(TrajectorySample::new(x, y, t)),
                    None => {
                        return Err(PersistError::Format {
                            line: lineno,
                            message: "PT before any OBJ".to_string(),
                        })
                    }
                }
            }
            other => {
                return Err(PersistError::Format {
                    line: lineno,
                    message: format!("unknown record '{other}'"),
                })
            }
        }
        Ok(())
    }

    fn finish(mut self) -> Result<Vec<UncertainTrajectory>, PersistError> {
        if let Some(obj) = self.current.take() {
            self.out.push(finish(obj, 0)?);
        }
        Ok(self.out)
    }
}

fn require<'a>(field: Option<&'a str>, line: usize, name: &str) -> Result<&'a str, PersistError> {
    field.ok_or_else(|| PersistError::Format {
        line,
        message: format!("missing field '{name}'"),
    })
}

fn parse_field<T: std::str::FromStr>(
    field: Option<&str>,
    line: usize,
    name: &str,
) -> Result<T, PersistError> {
    require(field, line, name)?
        .parse()
        .map_err(|_| PersistError::Format {
            line,
            message: format!("malformed field '{name}'"),
        })
}

fn finish(
    (oid, radius, pdf, samples): (Oid, f64, PdfKind, Vec<TrajectorySample>),
    line: usize,
) -> Result<UncertainTrajectory, PersistError> {
    let tr = Trajectory::new(oid, samples).map_err(|e| PersistError::Format {
        line,
        message: format!("invalid trajectory {oid}: {e}"),
    })?;
    UncertainTrajectory::new(tr, radius, pdf).map_err(|e| PersistError::Format {
        line,
        message: format!("invalid uncertainty for {oid}: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use unn_traj::generator::{generate_uncertain, WorkloadConfig};

    #[test]
    fn round_trip_preserves_exact_values() {
        let trs = generate_uncertain(&WorkloadConfig::with_objects(12, 77), 0.5);
        let mut buf = Vec::new();
        save_to(&trs, &mut buf).unwrap();
        let loaded = load_from(buf.as_slice()).unwrap();
        assert_eq!(trs, loaded);
    }

    #[test]
    fn round_trip_via_store_and_file() {
        let dir = std::env::temp_dir().join("unn_modb_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.mod");
        let store = ModStore::new();
        store
            .bulk_load(generate_uncertain(&WorkloadConfig::with_objects(5, 3), 1.0))
            .unwrap();
        save(&store, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.len(), 5);
        assert_eq!(loaded, store.snapshot().to_vec());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn gaussian_pdf_round_trips() {
        let tr = UncertainTrajectory::new(
            Trajectory::from_triples(Oid(4), &[(0.5, 1.5, 0.0), (2.0, 3.0, 5.0)]).unwrap(),
            0.75,
            PdfKind::TruncatedGaussian {
                radius: 0.75,
                sigma: 0.3,
            },
        )
        .unwrap();
        let mut buf = Vec::new();
        save_to(std::slice::from_ref(&tr), &mut buf).unwrap();
        let loaded = load_from(buf.as_slice()).unwrap();
        assert_eq!(loaded, vec![tr]);
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(matches!(
            load_from("PT 1 2 3\n".as_bytes()),
            Err(PersistError::Format { line: 1, .. })
        ));
        assert!(matches!(
            load_from("OBJ x 0.5 U\n".as_bytes()),
            Err(PersistError::Format { .. })
        ));
        assert!(matches!(
            load_from("OBJ 1 0.5 Z\n".as_bytes()),
            Err(PersistError::Format { .. })
        ));
        assert!(matches!(
            load_from("WHAT 1 2\n".as_bytes()),
            Err(PersistError::Format { .. })
        ));
        // An OBJ with fewer than two points is invalid.
        assert!(matches!(
            load_from("OBJ 1 0.5 U\nPT 0 0 0\n".as_bytes()),
            Err(PersistError::Format { .. })
        ));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# header\n\nOBJ 1 0.5 U\nPT 0 0 0\nPT 1 1 1\n# trailing\n";
        let loaded = load_from(text.as_bytes()).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].oid(), Oid(1));
    }

    #[test]
    fn io_errors_expose_their_source() {
        use std::error::Error;
        let missing = load(Path::new("/nonexistent/unn-modb-persist"));
        let err = missing.unwrap_err();
        let source = err.source().expect("io errors carry a source");
        assert!(source.downcast_ref::<io::Error>().is_some());
        // Format errors have no underlying cause.
        let format = load_from("WHAT\n".as_bytes()).unwrap_err();
        assert!(format.source().is_none());
    }

    #[test]
    fn text_image_loads_its_epoch_and_objects() {
        let trs = generate_uncertain(&WorkloadConfig::with_objects(7, 5), 0.5);
        let mut buf = b"# unn-modb v2\nEPOCH 424242\n".to_vec();
        save_to(&trs, &mut buf).unwrap();
        let image = load_image_from(buf.as_slice()).unwrap();
        assert_eq!(image.epoch, 424242);
        assert_eq!(image.objects, trs);
    }

    #[test]
    fn v1_files_load_as_epoch_zero_images() {
        let trs = generate_uncertain(&WorkloadConfig::with_objects(4, 9), 0.5);
        let mut buf = Vec::new();
        save_to(&trs, &mut buf).unwrap();
        let image = load_image_from(buf.as_slice()).unwrap();
        assert_eq!(image.epoch, 0);
        assert_eq!(image.objects, trs);
    }

    #[test]
    fn duplicate_epoch_is_rejected_and_v1_has_no_epoch() {
        assert!(matches!(
            load_image_from("# unn-modb v2\nEPOCH 1\nEPOCH 2\n".as_bytes()),
            Err(PersistError::Format { .. })
        ));
        // v1 files must not contain image records.
        assert!(matches!(
            load_from("EPOCH 3\n".as_bytes()),
            Err(PersistError::Format { .. })
        ));
    }
}
