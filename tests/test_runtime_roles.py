"""Runtime tests: roles/phases (view-of classes), semantic inheritance,
constraint propagation across aspects (E2)."""

import pytest

from repro.datatypes.values import money
from repro.diagnostics import ConstraintViolation, LifecycleError, PermissionDenied
from repro.library.specs import CAR_SPEC, PERSON_MANAGER_SPEC
from repro.runtime import ObjectBase
from repro.runtime.persistence import dump_json
from tests.conftest import D1960, D1991


@pytest.fixture
def promoted(staffed_company):
    system, sales, alice, bob = staffed_company
    system.occur(sales, "new_manager", [alice])
    manager = system.find("MANAGER", alice.key)
    return system, sales, alice, bob, manager


class TestRoleBirth:
    def test_role_born_by_bound_event(self, promoted):
        system, sales, alice, bob, manager = promoted
        assert manager is not None and manager.alive
        assert manager.base is alice

    def test_role_shares_identity_payload(self, promoted):
        system, sales, alice, bob, manager = promoted
        assert manager.key == alice.key
        assert manager.identity != alice.identity  # sorts differ

    def test_role_in_population(self, promoted):
        system, sales, alice, bob, manager = promoted
        assert len(system.population("MANAGER")) == 1

    def test_role_class_object_tracks_members(self, promoted):
        system, sales, alice, bob, manager = promoted
        assert system.class_object("MANAGER").count == 1

    def test_direct_become_manager_also_births_role(self, staffed_company):
        system, sales, alice, bob = staffed_company
        system.occur(alice, "become_manager")
        assert system.find("MANAGER", alice.key).alive


class TestSemanticInheritance:
    def test_inherited_attribute_reads_base_state(self, promoted):
        system, sales, alice, bob, manager = promoted
        assert system.get(manager, "Salary") == system.get(alice, "Salary")

    def test_base_change_visible_through_role(self, promoted):
        system, sales, alice, bob, manager = promoted
        system.occur(alice, "ChangeSalary", [7000.0])
        assert system.get(manager, "Salary") == money(7000.0)

    def test_inherited_event_routed_to_base(self, promoted):
        system, sales, alice, bob, manager = promoted
        system.occur(manager, "ChangeSalary", [8000.0])
        assert system.get(alice, "Salary") == money(8000.0)

    def test_own_attribute_stays_on_role(self, promoted):
        system, sales, alice, bob, manager = promoted
        car = system.create("CAR", {"Registration": "BS-X-1"}, "register", ["T1000"])
        system.occur(manager, "get_car", [car])
        assert system.get(manager, "OfficialCar") == car.identity
        assert "OfficialCar" not in alice.state

    def test_role_observes_base_events_in_trace(self, promoted):
        system, sales, alice, bob, manager = promoted
        system.occur(alice, "ChangeSalary", [9000.0])
        assert "ChangeSalary" in [s.event for s in manager.trace]

    def test_identification_inherited(self, promoted):
        system, sales, alice, bob, manager = promoted
        assert system.get(manager, "Name").payload == "alice"


class TestRoleConstraints:
    def test_constraint_checked_at_role_birth(self, staffed_company):
        system, sales, alice, bob = staffed_company
        with pytest.raises(ConstraintViolation):
            system.occur(bob, "become_manager")  # salary 3000 < 5000
        assert system.find("MANAGER", bob.key) is None

    def test_constraint_guards_base_events_while_role_alive(self, promoted):
        system, sales, alice, bob, manager = promoted
        with pytest.raises(ConstraintViolation):
            system.occur(alice, "ChangeSalary", [100.0])
        # rollback: salary unchanged
        assert system.get(alice, "Salary") == money(6000.0)

    def test_constraint_released_after_role_death(self, promoted):
        system, sales, alice, bob, manager = promoted
        system.occur(alice, "retire_manager")
        assert manager.dead
        system.occur(alice, "ChangeSalary", [100.0])
        assert system.get(alice, "Salary") == money(100.0)

    def test_raise_via_role_event_allowed(self, promoted):
        system, sales, alice, bob, manager = promoted
        system.occur(manager, "ChangeSalary", [9999.0])
        assert system.get(alice, "Salary") == money(9999.0)

    @pytest.mark.parametrize("txn_compile", [True, False], ids=["fused", "generic"])
    def test_rolled_back_role_event_restores_the_base(self, txn_compile):
        """MANAGER.get_car writes Salary, which PERSON stores; the
        violation must roll PERSON back, not only the role."""
        spec = CAR_SPEC + PERSON_MANAGER_SPEC.replace(
            "      get_car(C) OfficialCar = C;\n",
            "      get_car(C) OfficialCar = C;\n      get_car(C) Salary = 100;\n",
        )
        system = ObjectBase(spec, txn_compile=txn_compile)
        car = system.create("CAR", {"Registration": "c1"}, "register", ["golf"])
        person = system.create(
            "PERSON", {"Name": "ann", "BirthDate": D1960}, "hire_into", ["R", 6000]
        )
        system.occur(person, "become_manager")
        before = dump_json(system)
        with pytest.raises(ConstraintViolation):
            system.occur(("MANAGER", person.key), "get_car", [car.identity])
        assert system.get(person, "Salary") == money(6000)
        assert dump_json(system) == before


class TestPhaseLifecycle:
    def test_phase_death_bound_to_base_event(self, promoted):
        system, sales, alice, bob, manager = promoted
        system.occur(alice, "retire_manager")
        assert manager.dead
        assert not bool(system.get(alice, "IsManager"))

    def test_phase_not_reentered_with_same_role(self, promoted):
        system, sales, alice, bob, manager = promoted
        system.occur(alice, "retire_manager")
        with pytest.raises(LifecycleError):
            system.occur(alice, "become_manager")

    def test_base_survives_phase_end(self, promoted):
        system, sales, alice, bob, manager = promoted
        system.occur(alice, "retire_manager")
        assert alice.alive

    def test_role_events_rejected_after_phase_end(self, promoted):
        system, sales, alice, bob, manager = promoted
        car = system.create("CAR", {"Registration": "B-1"}, "register", ["T"])
        system.occur(alice, "retire_manager")
        with pytest.raises(LifecycleError):
            system.occur(manager, "get_car", [car])


class TestAssignOfficialCar:
    def test_global_rule_targets_role(self, promoted):
        system, sales, alice, bob, manager = promoted
        car = system.create("CAR", {"Registration": "B-2"}, "register", ["T"])
        system.occur(sales, "assign_official_car", [car, alice])
        assert system.get(manager, "OfficialCar") == car.identity

    def test_assign_to_non_manager_fails(self, staffed_company):
        system, sales, alice, bob = staffed_company
        car = system.create("CAR", {"Registration": "B-3"}, "register", ["T"])
        from repro.diagnostics import RuntimeSpecError

        with pytest.raises(RuntimeSpecError):
            system.occur(sales, "assign_official_car", [car, bob])
