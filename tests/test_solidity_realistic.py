"""Extraction robustness on production-shaped Solidity."""

from __future__ import annotations

from proxylineage import extract_functions

VAULT = """\
// SPDX-License-Identifier: MIT
pragma solidity ^0.8.19;

interface IVault {
    function deposit(uint256 amount) external returns (bool);
    function withdraw(uint256 amount, address payable to) external;
}

/**
 * @title Vault with {braces} in natspec
 * @dev function docComment() {} must not count
 */
contract Vault is IVault {
    event Deposited(address indexed who, uint256 amount);

    struct Position { uint256 principal; uint256 updatedAt; }

    mapping(address => Position) private positions;
    function(uint256) internal pure returns (uint256) transform;

    string private constant BANNER = "function bannerFake() { return; }";

    modifier nonZero(uint256 amount) {
        require(amount > 0, "zero {amount}");
        _;
    }

    constructor(uint256 seed) { }

    receive() external payable { }

    fallback() external payable { }

    function deposit(uint256 amount) external override nonZero(amount) returns (bool) {
        unchecked { positions[msg.sender].principal += amount; }
        emit Deposited(msg.sender, amount);
        return true;
    }

    function withdraw(uint256 amount, address payable to) external override {
        assembly {
            function yulHelper(x) -> y { y := add(x, 1) }
            let v := yulHelper(amount)
        }
        to.transfer(amount);
    }

    function _rate(uint256[] memory samples, mapping(address => Position) storage book)
        internal
        view
        returns (uint256 rate)
    {
        rate = samples.length + book[msg.sender].principal;
    }
}
"""


def test_realistic_vault_extraction():
    notes: list[str] = []
    units = extract_functions(VAULT, notes)
    assert notes == []
    signatures = [u.signature for u in units]
    assert signatures == [
        "deposit(uint256)",
        "withdraw(uint256,addresspayable)",
        "deposit(uint256)",
        "withdraw(uint256,addresspayable)",
        "_rate(uint256[],mapping(address=>Position))",
    ]
    # interface declarations end at the semicolon with no body
    interface_units = units[:2]
    assert all(u.body == "" for u in interface_units)
    assert all(u.start_line == u.end_line for u in interface_units)
    # implemented bodies span their braces
    vault_deposit = units[2]
    assert vault_deposit.body.startswith("{")
    assert vault_deposit.body.endswith("}")
    assert "unchecked" in vault_deposit.body
    # the Yul helper inside assembly and the function-typed state variable
    # produced no extra units; line spans are monotone within each container
    assert [u.name for u in units] == ["deposit", "withdraw", "deposit", "withdraw", "_rate"]
    withdraw_unit = units[3]
    assert "yulHelper" in withdraw_unit.body
    assert withdraw_unit.start_line < withdraw_unit.end_line


def test_realistic_vault_reextraction_is_stable():
    units_a = extract_functions(VAULT)
    units_b = extract_functions(VAULT)
    assert units_a == units_b
