//! Deterministic per-spec replay workloads shared by the differential
//! oracle tests (`vm_differential.rs`, `delta_differential.rs`) and the
//! served-world oracle (`serve.rs`): one script per shipped spec,
//! touching valuation, guarded permissions (granted *and* refused),
//! constraints, calling rules, global interactions, derived
//! attributes, views, obligations and active events. Included via
//! `#[path]` from each test binary — this file is not a test target
//! itself.

/// One deterministic workload per shipped spec.
pub fn workloads() -> Vec<(&'static str, &'static str, Vec<&'static str>)> {
    vec![
        (
            "dept",
            troll::specs::DEPT,
            vec![
                r#"birth DEPT ("Toys") establishment (date(1991,10,16))"#,
                r#"show |DEPT|("Toys") est_date"#,
                r#"exec |DEPT|("Toys") hire (|PERSON|("ada"))"#,
                r#"exec |DEPT|("Toys") hire (|PERSON|("bob"))"#,
                r#"exec |DEPT|("Toys") new_manager (|PERSON|("ada"))"#,
                r#"show |DEPT|("Toys") manager"#,
                r#"exec |DEPT|("Toys") fire (|PERSON|("eve"))"#,
                r#"exec |DEPT|("Toys") closure ()"#,
                r#"exec |DEPT|("Toys") fire (|PERSON|("ada"))"#,
                r#"exec |DEPT|("Toys") fire (|PERSON|("bob"))"#,
                r#"show |DEPT|("Toys") employees"#,
                r#"exec |DEPT|("Toys") closure ()"#,
            ],
        ),
        (
            "company",
            troll::specs::COMPANY,
            vec![
                r#"birth PERSON ("rich", date(1960,1,1)) create (9000.00, "R")"#,
                r#"birth PERSON ("poor", date(1960,1,1)) create (900.00, "R")"#,
                r#"exec |PERSON|("rich", date(1960,1,1)) become_manager ()"#,
                r#"exec |PERSON|("poor", date(1960,1,1)) become_manager ()"#,
                r#"exec |PERSON|("rich", date(1960,1,1)) step_down ()"#,
                r#"birth DEPT ("Toys") establishment (date(1991,1,1))"#,
                r#"exec |TheCompany|() found_dept (|DEPT|("Toys"))"#,
                r#"show |TheCompany|() depts"#,
                r#"exec |DEPT|("Toys") new_manager (|PERSON|("rich", date(1960,1,1)))"#,
                r#"show |PERSON|("rich", date(1960,1,1)) Salary"#,
            ],
        ),
        (
            "employment",
            troll::specs::EMPLOYMENT,
            vec![
                r#"exec |emp_rel|() CreateEmpRel ()"#,
                r#"exec |emp_rel|() InsertEmp ("ada", date(1960,1,1), 100)"#,
                r#"exec |emp_rel|() ChangeSalary ("ada", date(1960,1,1), 900)"#,
                r#"show |emp_rel|() Emps"#,
                r#"exec |emp_rel|() UpdateSalary ("bob", date(1960,1,1), 50)"#,
                r#"exec |emp_rel|() CloseEmpRel ()"#,
                r#"birth EMPLOYEE ("codd", date(1923,8,19)) HireEmployee ()"#,
                r#"exec |EMPLOYEE|("codd", date(1923,8,19)) IncreaseSalary (500)"#,
                r#"exec |EMPLOYEE|("codd", date(1923,8,19)) IncreaseSalary (-10)"#,
                r#"show |EMPLOYEE|("codd", date(1923,8,19)) Salary"#,
                r#"exec |EMPLOYEE|("codd", date(1923,8,19)) FireEmployee ()"#,
            ],
        ),
        (
            "views",
            troll::specs::VIEWS,
            vec![
                r#"birth PERSON ("ada") create (4000.00, "Research")"#,
                r#"birth PERSON ("bob") create (3000.00, "Sales")"#,
                r#"birth PERSON ("eve") create (5000.00, "Research")"#,
                r#"birth DEPT ("Research") establishment ()"#,
                r#"exec |DEPT|("Research") hire (|PERSON|("ada"))"#,
                r#"view SAL_EMPLOYEE"#,
                r#"view SAL_EMPLOYEE2"#,
                r#"call SAL_EMPLOYEE2 |PERSON|("ada") IncreaseSalary ()"#,
                r#"show |PERSON|("ada") Salary"#,
                r#"view RESEARCH_EMPLOYEE"#,
                r#"view WORKS_FOR"#,
            ],
        ),
        (
            "modules",
            troll::specs::MODULES,
            vec![
                r#"birth PERSON ("ada") create (4000.00, "Research")"#,
                r#"exec |PERSON|("ada") ChangeSalary (4500.00)"#,
                r#"exec |person_rel|() CreateRel ()"#,
                r#"exec |person_rel|() InsertP ("ada", 4500.00)"#,
                r#"exec |person_rel|() DeleteP ("bob")"#,
                r#"show |person_rel|() Tuples"#,
                r#"view SAL_EMPLOYEE"#,
                r#"view PHONEBOOK"#,
            ],
        ),
        (
            "library",
            troll::specs::LIBRARY,
            vec![
                r#"birth BOOK ("isbn-1") acquire ("Specs", 1)"#,
                r#"birth MEMBER ("m1") join_library ("ada")"#,
                r#"birth MEMBER ("m2") join_library ("bob")"#,
                r#"exec |MEMBER|("m1") borrow (|BOOK|("isbn-1"))"#,
                r#"exec |MEMBER|("m2") borrow (|BOOK|("isbn-1"))"#,
                r#"exec |MEMBER|("m1") incur_fine (5.00)"#,
                r#"exec |MEMBER|("m1") pay_fine (6.00)"#,
                r#"exec |MEMBER|("m1") pay_fine (5.00)"#,
                r#"exec |MEMBER|("m1") bring_back (|BOOK|("isbn-1"))"#,
                r#"exec |MEMBER|("m1") bring_back (|BOOK|("isbn-1"))"#,
                r#"view CATALOG"#,
                r#"view BORROWERS"#,
                r#"obligations |MEMBER|("m1")"#,
                r#"exec |BOOK|("isbn-1") discard_book ()"#,
                r#"exec |MEMBER|("m1") leave_library ()"#,
            ],
        ),
        (
            "clock",
            troll::specs::CLOCK,
            vec![
                r#"exec |clock|() start ()"#,
                r#"birth REMINDER ("r1") set_for (2)"#,
                r#"tick"#,
                r#"tick"#,
                r#"tick"#,
                r#"show |clock|() now"#,
                r#"show |REMINDER|("r1") fired"#,
                r#"view PENDING"#,
                r#"obligations |REMINDER|("r1")"#,
            ],
        ),
    ]
}
