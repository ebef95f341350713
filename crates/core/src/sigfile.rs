//! One signature file, three physical layouts: the protocol SSF, BSSF and
//! FSSF share, written once ([`SignatureFile`]), over a sealed [`Layout`].

use setsig_pagestore::{count_reads, CacheStats, FileId, PageIo, PagedFile};
use std::sync::Arc;

use crate::element::ElementKey;
use crate::error::Result;
use crate::facility::{CandidateSet, IndexLayout, Profile, ScanStats, SetAccessFacility};
use crate::meta::{self, MetaReader, MetaWriter};
use crate::oid::Oid;
use crate::oidfile::OidFile;
use crate::query::SetQuery;
use crate::sorted;

pub(crate) mod sealed {
    /// Keeps [`Layout`](super::Layout) to the layouts of this crate.
    pub trait Sealed {}
}

/// What a layout's filter found before the OID-file look-up.
pub struct Matches {
    /// Matching row positions, ascending.
    pub positions: Vec<u64>,
    /// Bit slices (BSSF) or frames (FSSF) touched; none for SSF.
    pub slices: u64,
    /// Whether the scan stopped before its slice budget.
    pub early_exit: bool,
}

impl Matches {
    /// The rows both scans matched (`T = Q` as `T ⊇ Q ∧ T ⊆ Q`): slices add
    /// up, and the scan exited early if either part did.
    pub(crate) fn intersect(self, other: Matches) -> Matches {
        Matches {
            positions: sorted::intersect(&self.positions, &other.positions),
            slices: self.slices + other.slices,
            early_exit: self.early_exit | other.early_exit,
        }
    }
}

/// The physical layout of a signature file: how rows are stored, written
/// and scanned. Sealed: its implementors are [`Rows`](crate::Rows) (SSF),
/// [`Slices`](crate::Slices) (BSSF) and [`Frames`](crate::Frames) (FSSF).
pub trait Layout: sealed::Sealed + Sized {
    /// The design parameters.
    type Config: Copy + std::fmt::Debug;
    /// One encoded row: what an insert writes for one set.
    type Row;
    /// Name in reports ("SSF", "BSSF", "FSSF"); lower case, the meta file's.
    const NAME: &'static str;
    /// Tag of the checkpoint blob.
    const MAGIC: &'static [u8; 4];

    /// Creates the empty layout files of the signature file `name` on `io`.
    fn create(io: &Arc<dyn PageIo>, name: &str, cfg: Self::Config) -> Result<Self>;
    /// The design parameters.
    fn config(&self) -> &Self::Config;
    /// Signature geometry `(F, m)`.
    fn geometry(&self) -> (u32, u32);
    /// Encodes the set of one object as a row.
    fn row(cfg: &Self::Config, set: &[ElementKey]) -> Self::Row;
    /// Writes `rows` at positions `start..` and calls `commit` last; on
    /// failure leaves no row a later append at `start` could inherit.
    fn append(
        &mut self,
        start: u64,
        rows: impl Iterator<Item = Self::Row>,
        commit: impl FnOnce() -> Result<()>,
    ) -> Result<()>;
    /// The positions among the first `n` rows that match `query`.
    fn positions(&self, query: &SetQuery, n: u64) -> Result<Matches>;
    /// Pages of the layout's files, the OID file excluded.
    fn storage_pages(&self) -> Result<u64>;
    /// Clears what a failed append left behind (SSF: nothing to clear).
    fn clear_torn(&mut self) -> Result<()> {
        Ok(())
    }
    /// Writes the checkpoint fields, with `oid_file` writing the OID file's
    /// where the layout's tag has them.
    fn write_meta(&self, w: &mut MetaWriter, oid_file: impl FnOnce(&mut MetaWriter));
    /// Reopens what [`write_meta`](Self::write_meta) wrote, likewise.
    fn open(
        io: &Arc<dyn PageIo>,
        r: &mut MetaReader<'_>,
        oid_file: impl FnOnce(&mut MetaReader<'_>) -> Result<OidFile>,
    ) -> Result<(Self, OidFile)>;
}

/// A signature file: a [`Layout`] and its companion [`OidFile`].
///
/// In the paper SSF and BSSF are two layouts of one file (§3.1, Figure 3):
/// the scan yields matching *positions*, and one OID file maps them to OIDs
/// (`LC_OID`). What the layouts share is written here, once:
///
/// * a new row goes to the next OID-file slot, `oid_file.len()`;
/// * the layout writes its rows, then the OID-file append **commits**: a
///   call that fails before it has indexed nothing;
/// * a delete only tombstones the OID-file entry (`UC_D = SC_OID/2`);
/// * `Σ|T|` over the live entries is kept beside their count: a commit adds
///   its sets' distinct elements, a delete subtracts them;
/// * the filter's page charge is [`count_reads`] around the layout's scan
///   and the OID look-up ([`ScanStats::pages`]);
/// * the checkpoint is the layout's fields around the OID file's id /
///   `len` / `live` and `Σ|T|`.
pub struct SignatureFile<L> {
    pub(crate) layout: L,
    pub(crate) oid_file: OidFile,
    /// `Σ|T|` over the live entries
    /// ([`profile`](SetAccessFacility::profile)).
    elements: u64,
    /// Catalog checkpoint file; created lazily by
    /// [`sync_meta`](SignatureFile::sync_meta).
    meta_file: Option<PagedFile>,
}

impl<L: Layout> SignatureFile<L> {
    /// Creates an empty signature file named `name` (its OID file is
    /// `<name>.oid`) on `io`. Hand it a
    /// [`BufferPool`](setsig_pagestore::BufferPool) to serve hot pages from
    /// memory on re-query; the caller keeps the pool's `Arc`.
    pub fn create(io: Arc<dyn PageIo>, name: &str, cfg: L::Config) -> Result<Self> {
        Ok(SignatureFile {
            layout: L::create(&io, name, cfg)?,
            oid_file: OidFile::create(io, &format!("{name}.oid")),
            elements: 0,
            meta_file: None,
        })
    }

    /// The design parameters.
    pub fn config(&self) -> &L::Config {
        self.layout.config()
    }

    /// The companion OID file.
    pub fn oid_file(&self) -> &OidFile {
        &self.oid_file
    }

    /// Appends `rows` for `oids` after the last entry and commits with the
    /// OID-file append; returns the first row's position. `elements`, the
    /// rows' `Σ|T|`, counts once the commit has.
    pub(crate) fn append_rows(
        &mut self,
        oids: &[Oid],
        rows: impl Iterator<Item = L::Row>,
        elements: u64,
    ) -> Result<u64> {
        let start = self.oid_file.len();
        let oid_file = &mut self.oid_file;
        self.layout
            .append(start, rows, || oid_file.bulk_append(oids).map(drop))?;
        self.elements += elements;
        Ok(start)
    }

    /// Compaction's last step: swaps in fresh files that hold only `rows`,
    /// the rows of the `live` entries, and returns how many there are.
    pub(crate) fn rebuild(&mut self, live: &[(u64, Oid)], rows: Vec<L::Row>) -> Result<u64> {
        let oids: Vec<Oid> = live.iter().map(|&(_, oid)| oid).collect();
        let io = Arc::clone(self.oid_file.file().io());
        let mut fresh = Self::create(io, "compacted", *self.config())?;
        fresh.append_rows(&oids, rows.into_iter(), 0)?;
        (self.layout, self.oid_file) = (fresh.layout, fresh.oid_file);
        Ok(oids.len() as u64)
    }

    /// Checkpoints the catalog state — design parameters, file bindings,
    /// entry counters — into the meta file, creating it on first use, and
    /// returns its id for [`open`](Self::open). What a failed insert left
    /// behind is cleared first (it is remembered in memory only), so an
    /// image saved after the checkpoint reopens clean.
    ///
    /// Checkpoints are explicit so per-operation costs keep the paper's
    /// values; call after bulk loading or before shutdown.
    pub fn sync_meta(&mut self) -> Result<FileId> {
        self.layout.clear_torn()?;
        let mut w = MetaWriter::new(L::MAGIC);
        self.layout.write_meta(&mut w, |w| {
            w.u32(self.oid_file.file().id().raw());
            w.u64(self.oid_file.len());
            w.u64(self.oid_file.live_count());
            w.u64(self.elements);
        });
        let io = Arc::clone(self.oid_file.file().io());
        let name = L::NAME.to_ascii_lowercase();
        meta::checkpoint(&io, &mut self.meta_file, &name, &w.finish())
    }

    /// Reopens a signature file from the meta file written by
    /// [`sync_meta`](Self::sync_meta) — e.g. after
    /// [`Disk::load_from`](setsig_pagestore::Disk::load_from). A blob the
    /// layout's constructor refuses is [`BadConfig`](crate::Error::BadConfig).
    pub fn open(io: Arc<dyn PageIo>, meta: FileId) -> Result<Self> {
        let meta_file = PagedFile::open(Arc::clone(&io), meta);
        let blob = meta_file.read_blob()?;
        let mut r = MetaReader::new(&blob, L::MAGIC)?;
        let mut elements = 0;
        let (layout, oid_file) = L::open(&io, &mut r, |r| {
            let file = PagedFile::open(Arc::clone(&io), FileId::from_raw(r.u32()?));
            let oid_file = OidFile::reopen(file, r.u64()?, r.u64()?)?;
            elements = r.u64()?;
            Ok(oid_file)
        })?;
        r.done()?;
        Ok(SignatureFile {
            layout,
            oid_file,
            elements,
            meta_file: Some(meta_file),
        })
    }
}

impl<L: Layout> SetAccessFacility for SignatureFile<L> {
    fn name(&self) -> &'static str {
        L::NAME
    }

    fn insert(&mut self, oid: Oid, set: &[ElementKey]) -> Result<()> {
        let row = L::row(self.config(), set);
        let elements = sorted::distinct_count(set) as u64;
        self.append_rows(&[oid], std::iter::once(row), elements)
            .map(drop)
    }

    fn delete(&mut self, oid: Oid, set: &[ElementKey]) -> Result<()> {
        // §4.1/§4.2: deletion only flags the OID-file entry; the stale row
        // stays and is filtered at OID look-up time.
        self.oid_file.delete_by_oid(oid)?;
        let elements = sorted::distinct_count(set) as u64;
        self.elements = self.elements.saturating_sub(elements);
        Ok(())
    }

    fn candidates_with_stats(&self, query: &SetQuery) -> Result<(CandidateSet, Option<ScanStats>)> {
        let (found, pages) = count_reads(|| -> Result<_> {
            let matches = self.layout.positions(query, self.oid_file.len())?;
            Ok((self.oid_file.drops_at(&matches.positions)?, matches))
        });
        let (drops, matches) = found?;
        let stats = ScanStats {
            pages,
            slices: matches.slices,
            early_exit: matches.early_exit,
        };
        Ok((drops, Some(stats)))
    }

    fn indexed_count(&self) -> u64 {
        self.oid_file.live_count()
    }

    fn storage_pages(&self) -> Result<u64> {
        Ok(self.layout.storage_pages()? + u64::from(self.oid_file.storage_pages()?))
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.oid_file.file().io().cache_stats()
    }

    fn profile(&self) -> Option<Profile> {
        let (f, m) = self.layout.geometry();
        Some(Profile {
            layout: IndexLayout::Signature { f, m },
            elements: self.elements,
        })
    }
}

impl<L: Layout> std::fmt::Debug for SignatureFile<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct(L::NAME)
            .field("config", self.config())
            .field("entries", &self.oid_file.len())
            .finish()
    }
}

/// The shell's behaviour, checked once for all layouts: each test runs its
/// check on every row of the `Fixture` table (`every_layout!`), or on the
/// rows it names.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bssf, Frames, FssfConfig, Rows, SignatureConfig, Slices, Ssf, OIDS_PER_PAGE};
    use setsig_pagestore::{BufferPool, Disk};

    /// A layout's row of the table: the configuration its checks build.
    trait Fixture: Layout {
        fn cfg() -> Self::Config;
        /// Pages the layout's files hold for the file's rows, in closed form.
        fn layout_pages(f: &SignatureFile<Self>) -> u64;
    }

    impl Fixture for Rows {
        fn cfg() -> SignatureConfig {
            SignatureConfig::new(128, 2).unwrap()
        }
        fn layout_pages(f: &Ssf) -> u64 {
            f.oid_file.len().div_ceil(f.signatures_per_page())
        }
    }

    impl Fixture for Slices {
        fn cfg() -> SignatureConfig {
            SignatureConfig::new(64, 2).unwrap()
        }
        /// Every slice holds a bit once the rows' sets cover the domain.
        fn layout_pages(f: &Bssf) -> u64 {
            u64::from(f.config().f_bits()) * f.pages_per_slice()
        }
    }

    impl Fixture for Frames {
        fn cfg() -> FssfConfig {
            FssfConfig::new(160, 16, 2).unwrap()
        }
        /// Every frame is kept as long as the rows.
        fn layout_pages(f: &SignatureFile<Frames>) -> u64 {
            let cfg = f.config();
            u64::from(cfg.frames()) * f.oid_file.len().div_ceil(cfg.rows_per_page())
        }
    }

    macro_rules! every_layout {
        ($check:ident) => {
            $check::<Rows>();
            $check::<Slices>();
            $check::<Frames>();
        };
    }

    fn keys(elems: &[&str]) -> Vec<ElementKey> {
        elems.iter().map(ElementKey::from).collect()
    }

    fn set_of(i: u64) -> Vec<ElementKey> {
        (0..4).map(|j| ElementKey::from(i * 17 + j)).collect()
    }

    fn populated<L: Fixture>(io: Arc<dyn PageIo>, n: u64) -> SignatureFile<L> {
        let mut f = SignatureFile::<L>::create(io, "t", L::cfg()).unwrap();
        for i in 0..n {
            f.insert(Oid::new(i), &set_of(i)).unwrap();
        }
        f
    }

    fn on_disk<L: Fixture>(n: u64) -> (Arc<Disk>, SignatureFile<L>) {
        let disk = Arc::new(Disk::new());
        let f = populated(Arc::clone(&disk) as Arc<dyn PageIo>, n);
        (disk, f)
    }

    #[test]
    fn cache_stats_come_from_the_io_handle() {
        fn check<L: Fixture>() {
            let disk = Arc::new(Disk::new());
            let pool = Arc::new(BufferPool::new(Arc::clone(&disk), 256));
            let f = populated::<L>(Arc::clone(&pool) as Arc<dyn PageIo>, 200);
            let name = f.name();
            let q = SetQuery::has_subset(vec![ElementKey::from(7u64 * 17)]);

            // The write-through inserts left every page resident: each page
            // the query charges is a pool hit.
            disk.reset_stats();
            let before = pool.stats();
            let (warm, warm_stats) = f.candidates_with_stats(&q).unwrap();
            let warm_stats = warm_stats.unwrap();
            let after = pool.stats();
            assert_eq!(disk.snapshot().reads, 0, "{name}: write-through");
            assert_eq!(after.hits - before.hits, warm_stats.pages, "{name}");
            assert_eq!(after.misses, before.misses, "{name}");

            // From a cold pool the query reaches the disk...
            pool.clear();
            let cold = f.candidates_with_stats(&q).unwrap();
            let missed = pool.stats();
            assert!(missed.misses > after.misses, "{name}: cold scan");
            // ...and its repeat does not; the charge is cache-independent.
            disk.reset_stats();
            let hot = f.candidates_with_stats(&q).unwrap();
            assert_eq!(disk.snapshot().reads, 0, "{name}: repeat scan");
            assert_eq!(cold, (warm, Some(warm_stats)), "{name}");
            assert_eq!(hot, cold, "{name}");
            let cache = f.cache_stats().expect("pooled facility reports pool stats");
            assert!(cache.hits > missed.hits, "{name}: repeat scan hits");
            assert_eq!(cache, pool.stats(), "{name}: the caller's pool reports");

            assert!(on_disk::<L>(5).1.cache_stats().is_none(), "{name}");
        }
        every_layout!(check);
    }

    #[test]
    fn tombstoned_rows_are_filtered() {
        fn check<L: Fixture>() {
            let (_d, mut f) = on_disk::<L>(0);
            let set = keys(&["Baseball"]);
            f.insert(Oid::new(1), &set).unwrap();
            f.insert(Oid::new(2), &set).unwrap();
            f.delete(Oid::new(1), &set).unwrap();
            let c = f.candidates(&SetQuery::has_subset(set)).unwrap();
            assert_eq!(c.oids, vec![Oid::new(2)], "{}", f.name());
            assert_eq!(f.indexed_count(), 1, "{}", f.name());
        }
        every_layout!(check);
    }

    #[test]
    fn the_sum_of_the_set_sizes_moves_with_the_commit_and_the_delete() {
        fn check<L: Fixture>() {
            let (disk, mut f) = on_disk::<L>(0);
            let name = f.name();
            // Repeats and order do not count.
            f.insert(Oid::new(1), &keys(&["b", "a", "b"])).unwrap();
            f.insert(Oid::new(2), &keys(&["c", "d", "e"])).unwrap();
            assert_eq!(f.profile().map(|p| p.elements), Some(5), "{name}");
            // A failed insert indexes nothing and counts nothing, nor does a
            // delete of an object the file does not hold.
            disk.inject_fault_after(0);
            assert!(f.insert(Oid::new(3), &keys(&["x"])).is_err(), "{name}");
            disk.clear_fault();
            assert!(f.delete(Oid::new(9), &keys(&["c"])).is_err(), "{name}");
            assert_eq!(f.profile().map(|p| p.elements), Some(5), "{name}");
            f.delete(Oid::new(1), &keys(&["a", "b"])).unwrap();
            assert_eq!(f.profile().map(|p| p.elements), Some(3), "{name}");
            // The checkpoint carries it.
            let meta = f.sync_meta().unwrap();
            let reopened = SignatureFile::<L>::open(disk, meta).unwrap();
            assert_eq!(reopened.profile().map(|p| p.elements), Some(3), "{name}");
        }
        every_layout!(check);
    }

    #[test]
    fn a_capped_query_runs_the_plain_filter_without_a_smart_strategy() {
        fn check<L: Fixture>() {
            let (_d, f) = on_disk::<L>(100);
            let elems = set_of(42)[..2].to_vec();
            for plain in [
                SetQuery::has_subset(elems.clone()),
                SetQuery::in_subset(elems),
            ] {
                let capped = plain.clone().with_cap(1).unwrap();
                assert_eq!(
                    f.candidates_with_stats(&capped).unwrap(),
                    f.candidates_with_stats(&plain).unwrap(),
                    "{} {}",
                    f.name(),
                    plain.predicate
                );
            }
        }
        // BSSF's smart strategies have their own tests in `bssf.rs`.
        check::<Rows>();
        check::<Frames>();
    }

    #[test]
    fn storage_is_the_layout_plus_sc_oid() {
        fn check<L: Fixture>() {
            let disk = Arc::new(Disk::new());
            let mut f =
                SignatureFile::<L>::create(Arc::clone(&disk) as Arc<dyn PageIo>, "t", L::cfg())
                    .unwrap();
            let n = 400;
            for i in 0..n {
                f.insert(Oid::new(i), &[ElementKey::from(i)]).unwrap();
            }
            let name = f.name();
            let layout = f.layout.storage_pages().unwrap();
            assert_eq!(layout, L::layout_pages(&f), "{name}");
            let sc_oid = n.div_ceil(OIDS_PER_PAGE);
            assert_eq!(f.storage_pages().unwrap(), layout + sc_oid, "{name}");
            // Every page on the disk is one of the file's.
            assert_eq!(f.storage_pages().unwrap(), disk.total_pages(), "{name}");
        }
        every_layout!(check);
        // 64 slices × 1 page + 1 OID page.
        let (_d, b) = on_disk::<Slices>(400);
        assert_eq!(b.storage_pages().unwrap(), 65);
    }

    #[test]
    fn scan_stats_pages_are_the_disk_reads() {
        fn check<L: Fixture>() {
            let (disk, f) = on_disk::<L>(120);
            let own = set_of(3);
            // A `⊇` no row matches: the AND scans stop early.
            let miss = (0..6).map(|j| ElementKey::from(10_000_000 + j)).collect();
            for (q, hit) in [
                (SetQuery::has_subset(own[..2].to_vec()), true),
                (SetQuery::in_subset(own.clone()), true),
                (SetQuery::equals(own.clone()), true),
                (SetQuery::overlaps(own[..1].to_vec()), true),
                (SetQuery::has_subset(miss), false),
            ] {
                let what = format!("{} {}", f.name(), q.predicate);
                disk.reset_stats();
                let (c, stats) = f.candidates_with_stats(&q).unwrap();
                let stats = stats.unwrap();
                assert_eq!(c.oids.contains(&Oid::new(3)), hit, "{what}");
                assert_eq!(stats.early_exit, !hit && L::NAME != "SSF", "{what}");
                // The filter's charge is exactly its disk traffic: the
                // layout's pages plus the OID-file look-up.
                assert_eq!(disk.snapshot().reads, stats.pages, "{what}");
            }
        }
        every_layout!(check);
    }

    #[test]
    fn reopens_from_a_saved_image() {
        fn check<L: Fixture>()
        where
            L::Config: PartialEq,
        {
            let name = L::NAME;
            let dir = std::env::temp_dir().join(format!(
                "setsig-{}-meta-{}",
                L::NAME,
                std::process::id()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("db.img");

            let (disk, mut f) = on_disk::<L>(0);
            f.insert(Oid::new(1), &keys(&["Baseball", "Fishing"]))
                .unwrap();
            f.insert(Oid::new(2), &keys(&["Tennis"])).unwrap();
            f.insert(Oid::new(4), &keys(&["Golf"])).unwrap();
            f.delete(Oid::new(4), &[]).unwrap();
            let meta = f.sync_meta().unwrap();
            disk.save_to(&path).unwrap();

            let loaded = Arc::new(Disk::load_from(&path).unwrap());
            let mut reopened = SignatureFile::<L>::open(loaded, meta).unwrap();
            assert_eq!(reopened.indexed_count(), 2, "{name}");
            assert_eq!(reopened.config(), &L::cfg(), "{name}");
            let q = SetQuery::contains(ElementKey::from("Baseball"));
            let answer = |f: &SignatureFile<L>| f.candidates(&q).unwrap().oids;
            assert_eq!(answer(&reopened), vec![Oid::new(1)], "{name}");
            // Appends continue at the correct position.
            reopened.insert(Oid::new(3), &keys(&["Baseball"])).unwrap();
            assert_eq!(answer(&reopened), vec![Oid::new(1), Oid::new(3)], "{name}");

            std::fs::remove_dir_all(&dir).ok();
        }
        every_layout!(check);
    }
}
