//! Saving and loading whole disk images.
//!
//! Examples build a database once and reload it on later runs. The format is
//! a simple length-prefixed binary layout:
//!
//! ```text
//! magic  "SSIMG1\n\0"              8 bytes
//! nfiles u32
//! per file:
//!   slot    u32     (FileId index: 0, 1, 2, … in order, no gaps)
//!   namelen u32, name bytes
//!   npages  u32, npages * PAGE_SIZE bytes
//! ```
//!
//! A damaged image is an `Err`, never an abort: nothing is sized from a
//! count the rest of the file could not hold.

use std::fs::File;
use std::io::{BufReader, Read, Seek, Write};
use std::path::Path;

use crate::disk::Disk;
use crate::error::{Error, Result};
use crate::page::{Page, PAGE_SIZE};

const MAGIC: &[u8; 8] = b"SSIMG1\n\0";

/// Bytes of a file record before its name and pages: slot, namelen, npages.
const RECORD_HEADER: u64 = 12;

impl Disk {
    /// Serializes the disk (file names and page contents; counters are not
    /// persisted) to `path`.
    pub fn save_to(&self, path: &Path) -> Result<()> {
        let files = self.dump_files();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(MAGIC)?;
        out.write_all(&(files.len() as u32).to_le_bytes())?;
        for (slot, (name, pages)) in files.into_iter().enumerate() {
            out.write_all(&(slot as u32).to_le_bytes())?;
            out.write_all(&(name.len() as u32).to_le_bytes())?;
            out.write_all(name.as_bytes())?;
            out.write_all(&(pages.len() as u32).to_le_bytes())?;
            for page in &pages {
                out.write_all(page.as_bytes())?;
            }
        }
        out.flush()?;
        Ok(())
    }

    /// Loads a disk image previously written by [`Disk::save_to`]. All
    /// counters start from zero.
    pub fn load_from(path: &Path) -> Result<Disk> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut input = BufReader::new(file);
        let mut magic = [0u8; 8];
        input.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(Error::CorruptImage("bad magic".into()));
        }
        let nfiles = read_count(&mut input, len, RECORD_HEADER)?;
        let mut files = Vec::with_capacity(nfiles);
        for _ in 0..nfiles {
            if read_u32(&mut input)? as usize != files.len() {
                return Err(Error::CorruptImage("file slot out of order".into()));
            }
            let namelen = read_u32(&mut input)? as usize;
            if namelen > 1 << 20 {
                return Err(Error::CorruptImage("file name too long".into()));
            }
            let mut name = vec![0u8; namelen];
            input.read_exact(&mut name)?;
            let name = String::from_utf8(name)
                .map_err(|_| Error::CorruptImage("file name not utf-8".into()))?;
            let npages = read_count(&mut input, len, PAGE_SIZE as u64)?;
            let mut pages = Vec::with_capacity(npages);
            for _ in 0..npages {
                let mut buf = [0u8; PAGE_SIZE];
                input.read_exact(&mut buf)?;
                pages.push(Page::from_bytes(buf));
            }
            files.push((name, pages));
        }
        let disk = Disk::new();
        disk.restore_files(files);
        Ok(disk)
    }
}

fn read_u32(r: &mut impl Read) -> Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Reads a count of records of at least `size` bytes each, refused if the
/// rest of the `len`-byte image cannot hold them.
fn read_count(input: &mut BufReader<File>, len: u64, size: u64) -> Result<usize> {
    let n = read_u32(input)?;
    if u64::from(n) * size > len.saturating_sub(input.stream_position()?) {
        return Err(Error::CorruptImage("count exceeds the image".into()));
    }
    Ok(n as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_files_and_contents() {
        let dir = std::env::temp_dir().join(format!("setsig-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("image.bin");

        let disk = Disk::new();
        let a = disk.create_file("alpha");
        let b = disk.create_file("beta");
        let mut p = Page::zeroed();
        p.write_u64(0, 11);
        disk.append_page(a, &p).unwrap();
        p.write_u64(0, 22);
        disk.append_page(b, &p).unwrap();
        p.write_u64(0, 33);
        disk.append_page(b, &p).unwrap();
        let c = disk.create_file("gamma");

        disk.save_to(&path).unwrap();
        let loaded = Disk::load_from(&path).unwrap();

        assert_eq!(loaded.read_page(a, 0).unwrap().read_u64(0), 11);
        assert_eq!(loaded.read_page(b, 1).unwrap().read_u64(0), 33);
        assert_eq!(loaded.page_count(c).unwrap(), 0);
        let names: Vec<_> = loaded.list_files().into_iter().map(|i| i.name).collect();
        assert_eq!(names, vec!["alpha", "beta", "gamma"]);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let dir = std::env::temp_dir().join(format!("setsig-persist-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.bin");
        std::fs::write(&path, b"NOTANIMAGE").unwrap();
        assert!(matches!(
            Disk::load_from(&path),
            Err(Error::CorruptImage(_)) | Err(Error::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A 1-page image with the `u32` at `offset` overwritten by `value`.
    fn load_damaged(tag: &str, offset: usize, value: u32) -> Result<Disk> {
        let dir = std::env::temp_dir().join(format!("setsig-persist-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("damaged.bin");
        let disk = Disk::new();
        let f = disk.create_file("t");
        disk.append_page(f, &Page::zeroed()).unwrap();
        disk.save_to(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let loaded = Disk::load_from(&path);
        std::fs::remove_dir_all(&dir).ok();
        loaded
    }

    // Offsets in the 1-page image: magic 0..8, nfiles 8, slot 12,
    // namelen 16, name "t" 20, npages 21.
    #[test]
    fn a_file_count_past_the_image_is_corrupt() {
        assert!(matches!(
            load_damaged("nfiles", 8, u32::MAX),
            Err(Error::CorruptImage(_))
        ));
    }

    #[test]
    fn a_page_count_past_the_image_is_corrupt() {
        assert!(matches!(
            load_damaged("npages", 21, u32::MAX),
            Err(Error::CorruptImage(_))
        ));
    }

    /// Slot `i` names file `i`: a gap, a repeat and a slot far past the
    /// end are all corrupt.
    #[test]
    fn slots_that_do_not_run_0_1_2_are_corrupt() {
        for slot in [1, 1 << 30] {
            assert!(matches!(
                load_damaged("slot", 12, slot),
                Err(Error::CorruptImage(_))
            ));
        }
        // A 2-file image; the second record's slot sits after the first's
        // 8 + 4 + 4 + 4 + 1 + 4 + PAGE_SIZE bytes.
        let dir = std::env::temp_dir().join(format!("setsig-persist-slot2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("two.bin");
        let disk = Disk::new();
        for name in ["a", "b"] {
            let f = disk.create_file(name);
            disk.append_page(f, &Page::zeroed()).unwrap();
        }
        disk.save_to(&path).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        let at = 25 + PAGE_SIZE;
        assert_eq!(pristine[at..at + 4], 1u32.to_le_bytes());
        for slot in [0u32, 2] {
            let mut bytes = pristine.clone();
            bytes[at..at + 4].copy_from_slice(&slot.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                matches!(Disk::load_from(&path), Err(Error::CorruptImage(_))),
                "second slot {slot}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_image_is_rejected() {
        let dir = std::env::temp_dir().join(format!("setsig-persist-trunc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trunc.bin");

        let disk = Disk::new();
        let f = disk.create_file("t");
        disk.append_page(f, &Page::zeroed()).unwrap();
        disk.save_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(Disk::load_from(&path).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }
}
