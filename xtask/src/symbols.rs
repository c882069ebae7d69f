//! Workspace symbol table over the parsed files.
//!
//! Lookup is by name: [`Workspace::lookup`] returns *every* item with a
//! given name, across crates, and each analysis narrows those
//! candidates by its own rules (see [`crate::analyses::lockorder`]).

use std::collections::HashMap;

use crate::parse::{FnItem, ParsedFile};

/// Identifies one item: `(file index, item index)`.
pub type FnId = (usize, usize);

/// The workspace: all parsed files plus the name index.
pub struct Workspace<'a> {
    /// Parsed files, in deterministic (sorted-path) order.
    pub files: Vec<ParsedFile<'a>>,
    /// fn name → every item with that name.
    by_name: HashMap<String, Vec<FnId>>,
}

impl<'a> Workspace<'a> {
    /// Builds the table from parsed files.
    pub fn new(files: Vec<ParsedFile<'a>>) -> Self {
        let mut by_name: HashMap<String, Vec<FnId>> = HashMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (ii, item) in file.items.iter().enumerate() {
                by_name.entry(item.name.clone()).or_default().push((fi, ii));
            }
        }
        Workspace { files, by_name }
    }

    /// Every item with the given name.
    pub fn lookup(&self, name: &str) -> &[FnId] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// The item behind an id.
    pub fn item(&self, id: FnId) -> &FnItem {
        &self.files[id.0].items[id.1]
    }

    /// The file containing an id.
    pub fn file(&self, id: FnId) -> &ParsedFile<'a> {
        &self.files[id.0]
    }

    /// Workspace-relative path of the file containing `id`.
    pub fn path(&self, id: FnId) -> &str {
        &self.files[id.0].relpath
    }

    /// The crate name for an id (`crates/<name>/…`), or the first path
    /// segment when the file is outside `crates/` (fixtures).
    pub fn crate_of(&self, id: FnId) -> &str {
        crate_of_path(self.path(id))
    }

    /// All ids, in deterministic order.
    pub fn all_ids(&self) -> impl Iterator<Item = FnId> + '_ {
        self.files
            .iter()
            .enumerate()
            .flat_map(|(fi, f)| (0..f.items.len()).map(move |ii| (fi, ii)))
    }
}

/// Extracts the crate name from a workspace-relative path.
pub fn crate_of_path(relpath: &str) -> &str {
    let mut parts = relpath.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name,
        (Some(first), _) => first,
        _ => relpath,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn lookup_finds_every_item_with_a_name() {
        let a = parse::parse(
            "crates/a/src/lib.rs",
            "fn go() {} impl X { fn go(&self) {} }",
        );
        let b = parse::parse("crates/b/src/lib.rs", "fn go() {}");
        let ws = Workspace::new(vec![a, b]);
        assert_eq!(ws.lookup("go").len(), 3);
        assert!(ws.lookup("missing").is_empty());
    }

    #[test]
    fn crate_names_come_from_the_path() {
        assert_eq!(crate_of_path("crates/serve/src/lib.rs"), "serve");
        assert_eq!(crate_of_path("fixture.rs"), "fixture.rs");
        assert_eq!(crate_of_path("tests/fixtures/x.rs"), "tests");
    }
}
