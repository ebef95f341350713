//! Path-derived set attributes — the nested index's native habitat.
//!
//! §1's motivating example builds NIX "on the path `Student.courses.
//! category`": a `Student` is indexed by the **categories of the courses it
//! references**, so *"find all students who take only the lectures in the
//! DB category"* is a single `⊆ {"DB"}` query, with no join.
//!
//! [`Database::register_path_facility`] realizes that: it derives, for each
//! object, the set `{ target.attr | ref ∈ object.ref_attr }` by fetching
//! the referenced objects, and maintains any [`SetAccessFacility`] over the
//! derived sets. Like the original nested index, the mapping is maintained
//! on host-object insert/delete; updating a *target* object's indexed
//! attribute would require reverse references (Bertino & Kim's discussion)
//! and is out of scope — documented, as the paper does, as an update
//! anomaly of path indexes.

use setsig_core::SetAccessFacility;

use crate::database::Database;
use crate::error::{Error, Result};
use crate::schema::{AttrType, ClassId};

/// A path specification: follow the OID set in `ref_attr`, read
/// `target_attr` of each referenced object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSpec {
    /// Index of the `Set<Ref>` attribute on the host class.
    pub ref_attr: usize,
    /// Index of the primitive attribute on the referenced class.
    pub target_attr: usize,
}

impl Database {
    /// Registers `facility` over the path `class.ref_attr → target.attr` —
    /// the paper's `Student.courses.category` shape. Existing objects are
    /// back-filled (each derivation fetches its referenced objects).
    ///
    /// Queries against the returned facility index use the *derived*
    /// element values: `in_subset(["DB"])` answers "students taking only
    /// DB-category courses".
    pub fn register_path_facility(
        &mut self,
        class: ClassId,
        ref_attr_name: &str,
        target_class: ClassId,
        target_attr_name: &str,
        facility: Box<dyn SetAccessFacility>,
    ) -> Result<usize> {
        let def = self.class(class)?;
        let ref_attr = def.attr_index(ref_attr_name)?;
        if !matches!(&def.attrs[ref_attr].ty, AttrType::Set(inner) if **inner == AttrType::Ref) {
            return Err(Error::NotASetAttribute(format!(
                "{ref_attr_name:?} is not a set of references"
            )));
        }
        let tdef = self.class(target_class)?;
        let target_attr = tdef.attr_index(target_attr_name)?;
        if !tdef.attrs[target_attr].ty.is_element_type() {
            return Err(Error::NotASetAttribute(format!(
                "{target_attr_name:?} is not a primitive attribute"
            )));
        }
        let spec = PathSpec {
            ref_attr,
            target_attr,
        };
        self.register_derived(class, spec, facility)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ClassDef;
    use crate::value::Value;
    use setsig_core::ElementKey;
    use setsig_core::{Oid, SetQuery, SignatureConfig, Ssf};
    use setsig_pagestore::PageIo;
    use std::sync::Arc;

    /// Builds the §1 sample database: courses with categories, students
    /// referencing them.
    fn sample() -> (Database, ClassId, Vec<Oid>, ClassId) {
        let mut db = Database::in_memory();
        let course = db
            .define_class(ClassDef::new(
                "Course",
                vec![("name", AttrType::Str), ("category", AttrType::Str)],
            ))
            .unwrap();
        let student = db
            .define_class(ClassDef::new(
                "Student",
                vec![
                    ("name", AttrType::Str),
                    ("courses", AttrType::set_of(AttrType::Ref)),
                ],
            ))
            .unwrap();
        let mut courses = Vec::new();
        for (name, cat) in [
            ("DB Theory", "DB"),
            ("DB Systems", "DB"),
            ("Algorithms", "CS"),
            ("Compilers", "CS"),
        ] {
            courses.push(
                db.insert_object(course, vec![Value::str(name), Value::str(cat)])
                    .unwrap(),
            );
        }
        (db, student, courses, course)
    }

    fn facility(db: &Database) -> Box<dyn SetAccessFacility> {
        let io = Arc::clone(db.disk()) as Arc<dyn PageIo>;
        Box::new(Ssf::create(io, "path", SignatureConfig::new(128, 2).unwrap()).unwrap())
    }

    #[test]
    fn section1_queries_through_the_path_index() {
        let (mut db, student, c, _course) = sample();
        let fac = facility(&db);
        let idx = db
            .register_path_facility(
                student,
                "courses",
                db.class_by_name("Course").unwrap(),
                "category",
                fac,
            )
            .unwrap();

        let jeff = db
            .insert_object(
                student,
                vec![
                    Value::str("Jeff"),
                    Value::set(vec![Value::Ref(c[0]), Value::Ref(c[1])]),
                ],
            )
            .unwrap();
        let ann = db
            .insert_object(
                student,
                vec![
                    Value::str("Ann"),
                    Value::set(vec![Value::Ref(c[0]), Value::Ref(c[2])]),
                ],
            )
            .unwrap();
        let bob = db
            .insert_object(
                student,
                vec![Value::str("Bob"), Value::set(vec![Value::Ref(c[3])])],
            )
            .unwrap();

        // "Students who take only DB-category lectures": derived ⊆ {"DB"}.
        let only_db = SetQuery::in_subset(vec![ElementKey::from("DB")]);
        let r = db.execute_set_query(idx, &only_db).unwrap();
        assert_eq!(r.actual, vec![jeff]);

        // "Students taking at least one DB lecture": derived ∋ "DB".
        let some_db = SetQuery::contains(ElementKey::from("DB"));
        let r = db.execute_set_query(idx, &some_db).unwrap();
        assert_eq!(r.actual, vec![jeff, ann]);

        // "Students spanning both categories": derived ⊇ {"DB", "CS"}.
        let both = SetQuery::has_subset(vec![ElementKey::from("DB"), ElementKey::from("CS")]);
        let r = db.execute_set_query(idx, &both).unwrap();
        assert_eq!(r.actual, vec![ann]);
        let _ = bob;
    }

    #[test]
    fn deletion_unindexes_the_derived_set() {
        let (mut db, student, c, _) = sample();
        let fac = facility(&db);
        let idx = db
            .register_path_facility(
                student,
                "courses",
                db.class_by_name("Course").unwrap(),
                "category",
                fac,
            )
            .unwrap();
        let jeff = db
            .insert_object(
                student,
                vec![Value::str("Jeff"), Value::set(vec![Value::Ref(c[0])])],
            )
            .unwrap();
        db.delete_object(jeff).unwrap();
        let r = db
            .execute_set_query(idx, &SetQuery::contains(ElementKey::from("DB")))
            .unwrap();
        assert!(r.actual.is_empty());
    }

    #[test]
    fn backfill_indexes_preexisting_objects() {
        let (mut db, student, c, _) = sample();
        let jeff = db
            .insert_object(
                student,
                vec![Value::str("Jeff"), Value::set(vec![Value::Ref(c[1])])],
            )
            .unwrap();
        let fac = facility(&db);
        let idx = db
            .register_path_facility(
                student,
                "courses",
                db.class_by_name("Course").unwrap(),
                "category",
                fac,
            )
            .unwrap();
        let r = db
            .execute_set_query(idx, &SetQuery::contains(ElementKey::from("DB")))
            .unwrap();
        assert_eq!(r.actual, vec![jeff]);
    }

    #[test]
    fn rejects_bad_paths() {
        let (mut db, student, _c, course) = sample();
        // name is not a set of refs.
        let fac = facility(&db);
        assert!(db
            .register_path_facility(student, "name", course, "category", fac)
            .is_err());
        // referenced attribute must be primitive — "courses" on Course
        // doesn't exist, and a set target is rejected too.
        let fac = facility(&db);
        assert!(db
            .register_path_facility(student, "courses", course, "nonexistent", fac)
            .is_err());
    }

    #[test]
    fn dangling_reference_surfaces_as_error() {
        let (mut db, student, c, course) = sample();
        let fac = facility(&db);
        db.register_path_facility(student, "courses", course, "category", fac)
            .unwrap();
        // Reference an OID that was never stored.
        let err = db.insert_object(
            student,
            vec![
                Value::str("X"),
                Value::set(vec![Value::Ref(Oid::new(9999))]),
            ],
        );
        assert!(matches!(err, Err(Error::NoSuchObject(_))));
        // The rejected insert took no OID: the next one gets the OID after
        // the last course's.
        let ok = db
            .insert_object(student, vec![Value::str("Y"), Value::set(vec![])])
            .unwrap();
        assert_eq!(ok, Oid::new(c[3].raw() + 1));
    }
}
