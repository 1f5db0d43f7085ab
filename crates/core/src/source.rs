//! One vocabulary for "where a corpus comes from".
//!
//! Every LotusX front end — the CLI, the HTTP server, the stress tool,
//! the benchmarks — needs to open a corpus from a user-supplied string,
//! and before [`CorpusSource`] each of them re-implemented the same
//! sniffing (`@` prefix → generated dataset, `.ltsx` suffix → snapshot,
//! otherwise an XML file). This module centralizes that grammar behind a
//! single [`FromStr`] and a single [`LotusX::open`](crate::LotusX::open)
//! entry point:
//!
//! | input | parses as |
//! |---|---|
//! | `@dataset[:scale[:seed]]` (e.g. `@dblp:2`) | [`CorpusSource::Spec`] |
//! | a path ending in `.ltsx` | [`CorpusSource::Snapshot`] |
//! | text starting with `<` | [`CorpusSource::Inline`] |
//! | anything else | [`CorpusSource::XmlFile`] |
//!
//! ```
//! use lotusx::{CorpusSource, LotusX};
//!
//! let source: CorpusSource = "@dblp:1:7".parse().unwrap();
//! let system = LotusX::open(&source).unwrap();
//! assert!(system.index().document().node_count() > 1);
//! ```

use crate::request::LotusError;
use lotusx_datagen::Dataset;
use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// A place a corpus can be opened from. See the [module docs](self) for
/// the string grammar.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CorpusSource {
    /// An XML document on disk, parsed and indexed on open.
    XmlFile(PathBuf),
    /// A `.ltsx` binary snapshot, which opens without parsing XML.
    Snapshot(PathBuf),
    /// A deterministic generated dataset (`@dataset[:scale[:seed]]`).
    Spec {
        /// Which built-in generator.
        dataset: Dataset,
        /// Size multiplier (the generators scale superlinearly with it).
        scale: u32,
        /// RNG seed; the same spec always yields the same document.
        seed: u64,
    },
    /// An XML document passed inline as a string.
    Inline(String),
}

impl CorpusSource {
    /// Classifies a filesystem path: `.ltsx` extensions open as
    /// snapshots, everything else as an XML file.
    pub fn from_path(path: impl AsRef<Path>) -> Self {
        let path = path.as_ref();
        if path.extension().is_some_and(|e| e == "ltsx") {
            CorpusSource::Snapshot(path.to_path_buf())
        } else {
            CorpusSource::XmlFile(path.to_path_buf())
        }
    }
}

impl FromStr for CorpusSource {
    type Err = LotusError;

    fn from_str(s: &str) -> Result<Self, LotusError> {
        if let Some(spec) = s.strip_prefix('@') {
            let (dataset, scale, seed) = lotusx_datagen::parse_spec(spec).ok_or_else(|| {
                LotusError::Config(format!(
                    "invalid corpus spec '@{spec}' (expected @dataset[:scale[:seed]] with \
                     dataset one of dblp, xmark, treebank)"
                ))
            })?;
            return Ok(CorpusSource::Spec {
                dataset,
                scale,
                seed,
            });
        }
        if s.trim_start().starts_with('<') {
            return Ok(CorpusSource::Inline(s.to_string()));
        }
        Ok(CorpusSource::from_path(s))
    }
}

impl fmt::Display for CorpusSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusSource::XmlFile(p) => write!(f, "{}", p.display()),
            CorpusSource::Snapshot(p) => write!(f, "{}", p.display()),
            CorpusSource::Spec {
                dataset,
                scale,
                seed,
            } => {
                let token = match dataset {
                    Dataset::DblpLike => "dblp",
                    Dataset::XmarkLike => "xmark",
                    Dataset::TreebankLike => "treebank",
                };
                write!(f, "@{token}:{scale}:{seed}")
            }
            CorpusSource::Inline(_) => write!(f, "<inline XML>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_grammar_covers_every_variant() {
        assert_eq!(
            "@dblp".parse::<CorpusSource>().unwrap(),
            CorpusSource::Spec {
                dataset: Dataset::DblpLike,
                scale: 1,
                seed: 42
            }
        );
        assert_eq!(
            "@treebank:3:9".parse::<CorpusSource>().unwrap(),
            CorpusSource::Spec {
                dataset: Dataset::TreebankLike,
                scale: 3,
                seed: 9
            }
        );
        assert_eq!(
            "corpus.ltsx".parse::<CorpusSource>().unwrap(),
            CorpusSource::Snapshot(PathBuf::from("corpus.ltsx"))
        );
        assert_eq!(
            "data/bib.xml".parse::<CorpusSource>().unwrap(),
            CorpusSource::XmlFile(PathBuf::from("data/bib.xml"))
        );
        assert_eq!(
            "<bib/>".parse::<CorpusSource>().unwrap(),
            CorpusSource::Inline("<bib/>".to_string())
        );
        assert!(matches!(
            "@nope:1".parse::<CorpusSource>(),
            Err(LotusError::Config(_))
        ));
        assert!(matches!(
            "@dblp:not-a-number".parse::<CorpusSource>(),
            Err(LotusError::Config(_))
        ));
    }

    #[test]
    fn display_roundtrips_reparseable_forms() {
        for text in ["@dblp:2:7", "corpus.ltsx", "data/bib.xml"] {
            let source: CorpusSource = text.parse().unwrap();
            assert_eq!(source.to_string().parse::<CorpusSource>().unwrap(), source);
        }
    }

    #[test]
    fn open_inline_and_spec() {
        let inline = crate::LotusX::open(&"<a><b>hi</b></a>".parse().unwrap()).unwrap();
        assert_eq!(inline.index().document().to_xml(), "<a><b>hi</b></a>");

        let spec = crate::LotusX::open(&"@dblp:1:7".parse().unwrap()).unwrap();
        let direct =
            crate::LotusX::load_document(lotusx_datagen::generate(Dataset::DblpLike, 1, 7));
        assert_eq!(
            spec.index().document().to_xml(),
            direct.index().document().to_xml()
        );
    }
}
