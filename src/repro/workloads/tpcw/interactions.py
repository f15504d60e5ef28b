"""The 14 TPC-W web interactions as SQL transaction templates.

Each interaction is a method of :class:`TPCWInteractions` that issues its
SQL against a DB-API connection: a direct backend connection or a C-JDBC
virtual database connection.  The examples, the integration tests, the
load benchmark and the counted Figures 10-12 (``tests/test_tpcw_figures.py``)
all run these methods.

Six interactions are read-only (Home, New Products, Best Sellers, Product
Detail, Search Request, Search Results) and eight belong to the ordering
path (Shopping Cart, Customer Registration, Buy Request, Buy Confirm, Order
Inquiry, Order Display, Admin Request, Admin Confirm).  Order Inquiry, Order
Display and Admin Request issue only reads here, following the Wisconsin
servlet implementation; the paper counts them among the eight because the
specification puts them on the ordering path.
"""

from __future__ import annotations

import random

#: the six read-only interactions of the specification
READ_ONLY_INTERACTIONS = (
    "home",
    "new_products",
    "best_sellers",
    "product_detail",
    "search_request",
    "search_results",
)

#: every interaction :class:`TPCWInteractions` can run, by name: the
#: read-only six, then the eight of the ordering path
INTERACTION_NAMES = READ_ONLY_INTERACTIONS + (
    "shopping_cart",
    "customer_registration",
    "buy_request",
    "buy_confirm",
    "order_inquiry",
    "order_display",
    "admin_request",
    "admin_confirm",
)


class TPCWInteractions:
    """Run TPC-W interactions against a DB-API connection.

    ``items`` / ``customers`` must match the populated database so the
    random identifiers hit existing rows.
    """

    def __init__(self, connection, items: int, customers: int, seed: int = 7):
        self.connection = connection
        self.items = items
        self.customers = customers
        self.random = random.Random(seed)
        self._cart_counter = 0

    # -- helpers --------------------------------------------------------------------

    def _cursor(self):
        return self.connection.cursor()

    def _item_id(self) -> int:
        return self.random.randint(1, self.items)

    def _customer_id(self) -> int:
        return self.random.randint(1, self.customers)

    def run(self, name: str) -> int:
        """Run one interaction by name; returns the number of SQL statements."""
        method = getattr(self, name)
        return method()

    # -- read-only interactions --------------------------------------------------------

    def home(self) -> int:
        cursor = self._cursor()
        cursor.execute(
            "SELECT c_fname, c_lname FROM customer WHERE c_id = ?", (self._customer_id(),)
        )
        cursor.fetchall()
        cursor.execute(
            "SELECT i_id, i_title, i_thumbnail FROM item WHERE i_subject = ? LIMIT 5",
            (self.random.choice(_SUBJECT_SAMPLE),),
        )
        cursor.fetchall()
        return 2

    def new_products(self) -> int:
        cursor = self._cursor()
        cursor.execute(
            "SELECT i_id, i_title, a_fname, a_lname FROM item, author"
            " WHERE i_a_id = a_id AND i_subject = ?"
            " ORDER BY i_pub_date DESC, i_title LIMIT 50",
            (self.random.choice(_SUBJECT_SAMPLE),),
        )
        cursor.fetchall()
        return 1

    def best_sellers(self) -> int:
        """The best-seller interaction: temp table + top-50 select + drop."""
        cursor = self._cursor()
        suffix = self.random.randint(1, 10 ** 9)
        temp_table = f"tpcw_bestseller_{suffix}"
        cursor.execute(
            f"CREATE TABLE {temp_table} (ol_i_id INT, ol_qty INT)"
        )
        cursor.execute(
            f"INSERT INTO {temp_table} (ol_i_id, ol_qty)"
            " SELECT ol_i_id, ol_qty FROM order_line"
        )
        cursor.execute(
            f"SELECT i_id, i_title, SUM(ol_qty) AS total_sold"
            f" FROM {temp_table}, item WHERE ol_i_id = i_id"
            " GROUP BY i_id, i_title ORDER BY total_sold DESC LIMIT 50"
        )
        cursor.fetchall()
        cursor.execute(f"DROP TABLE {temp_table}")
        return 4

    def product_detail(self) -> int:
        cursor = self._cursor()
        cursor.execute(
            "SELECT i_id, i_title, i_cost, i_srp, a_fname, a_lname FROM item, author"
            " WHERE i_a_id = a_id AND i_id = ?",
            (self._item_id(),),
        )
        cursor.fetchall()
        return 1

    def search_request(self) -> int:
        cursor = self._cursor()
        cursor.execute("SELECT i_subject FROM item WHERE i_id = ?", (self._item_id(),))
        cursor.fetchall()
        return 1

    def search_results(self) -> int:
        cursor = self._cursor()
        kind = self.random.choice(("subject", "title", "author"))
        if kind == "subject":
            cursor.execute(
                "SELECT i_id, i_title FROM item WHERE i_subject = ? ORDER BY i_title LIMIT 50",
                (self.random.choice(_SUBJECT_SAMPLE),),
            )
        elif kind == "title":
            cursor.execute(
                "SELECT i_id, i_title FROM item WHERE i_title LIKE ? ORDER BY i_title LIMIT 50",
                (f"Book Title {self.random.randint(1, self.items)}%",),
            )
        else:
            cursor.execute(
                "SELECT i_id, i_title, a_lname FROM item, author"
                " WHERE i_a_id = a_id AND a_lname LIKE ? ORDER BY i_title LIMIT 50",
                (f"AuthorLast{self.random.randint(0, 99)}%",),
            )
        cursor.fetchall()
        return 1

    # -- read-write interactions ----------------------------------------------------------

    def shopping_cart(self) -> int:
        connection = self.connection
        connection.begin()
        cursor = self._cursor()
        cursor.execute("INSERT INTO shopping_cart (sc_time) VALUES (NOW())")
        self._cart_counter += 1
        cursor.execute("SELECT MAX(sc_id) FROM shopping_cart")
        cart_id = cursor.fetchone()[0]
        cursor.execute(
            "INSERT INTO shopping_cart_line (scl_sc_id, scl_i_id, scl_qty) VALUES (?, ?, ?)",
            (cart_id, self._item_id(), self.random.randint(1, 5)),
        )
        cursor.execute(
            "SELECT scl_i_id, scl_qty, i_title, i_cost FROM shopping_cart_line, item"
            " WHERE scl_i_id = i_id AND scl_sc_id = ?",
            (cart_id,),
        )
        cursor.fetchall()
        connection.commit()
        return 4

    def customer_registration(self) -> int:
        connection = self.connection
        connection.begin()
        cursor = self._cursor()
        cursor.execute(
            "SELECT c_id FROM customer WHERE c_uname = ?", (f"user{self._customer_id()}",)
        )
        cursor.fetchall()
        new_id = self.customers + self.random.randint(10 ** 6, 2 * 10 ** 6)
        cursor.execute(
            "INSERT INTO address (addr_id, addr_street1, addr_city, addr_zip, addr_co_id)"
            " VALUES (?, ?, ?, ?, ?)",
            (new_id, "1 New St", "NewCity", "00000", 1),
        )
        cursor.execute(
            "INSERT INTO customer (c_id, c_uname, c_passwd, c_fname, c_lname, c_addr_id,"
            " c_discount, c_balance, c_ytd_pmt) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (new_id, f"newuser{new_id}", "pw", "New", "Customer", new_id, 0.1, 0.0, 0.0),
        )
        connection.commit()
        return 3

    def buy_request(self) -> int:
        connection = self.connection
        connection.begin()
        cursor = self._cursor()
        customer = self._customer_id()
        cursor.execute(
            "SELECT c_fname, c_lname, c_discount FROM customer WHERE c_id = ?", (customer,)
        )
        cursor.fetchall()
        cursor.execute(
            "SELECT scl_i_id, scl_qty FROM shopping_cart_line WHERE scl_sc_id = ?",
            (max(1, self._cart_counter),),
        )
        cursor.fetchall()
        cursor.execute(
            "UPDATE customer SET c_login = NOW(), c_expiration = NOW() WHERE c_id = ?",
            (customer,),
        )
        connection.commit()
        return 3

    def buy_confirm(self) -> int:
        connection = self.connection
        connection.begin()
        cursor = self._cursor()
        customer = self._customer_id()
        item = self._item_id()
        quantity = self.random.randint(1, 5)
        cursor.execute(
            "SELECT scl_i_id, scl_qty FROM shopping_cart_line WHERE scl_sc_id = ?",
            (max(1, self._cart_counter),),
        )
        cursor.fetchall()
        cursor.execute(
            "INSERT INTO orders (o_c_id, o_date, o_sub_total, o_tax, o_total, o_ship_type,"
            " o_bill_addr_id, o_ship_addr_id, o_status)"
            " VALUES (?, NOW(), ?, ?, ?, ?, ?, ?, ?)",
            (customer, 100.0, 8.0, 108.0, "AIR", 1, 1, "PENDING"),
        )
        cursor.execute("SELECT MAX(o_id) FROM orders")
        order_id = cursor.fetchone()[0]
        cursor.execute(
            "INSERT INTO order_line (ol_o_id, ol_i_id, ol_qty, ol_discount, ol_comments)"
            " VALUES (?, ?, ?, ?, ?)",
            (order_id, item, quantity, 0.0, ""),
        )
        cursor.execute(
            "UPDATE item SET i_stock = i_stock - ? WHERE i_id = ?", (quantity, item)
        )
        cursor.execute(
            "INSERT INTO cc_xacts (cx_o_id, cx_type, cx_num, cx_name, cx_xact_amt, cx_co_id)"
            " VALUES (?, ?, ?, ?, ?, ?)",
            (order_id, "VISA", "4111111111111111", f"Name {customer}", 108.0, 1),
        )
        cursor.execute(
            "DELETE FROM shopping_cart_line WHERE scl_sc_id = ?", (max(1, self._cart_counter),)
        )
        connection.commit()
        return 7

    def order_inquiry(self) -> int:
        cursor = self._cursor()
        cursor.execute(
            "SELECT c_id FROM customer WHERE c_uname = ? AND c_passwd = ?",
            (f"user{self._customer_id()}", "password"),
        )
        cursor.fetchall()
        return 1

    def order_display(self) -> int:
        cursor = self._cursor()
        customer = self._customer_id()
        cursor.execute("SELECT c_id FROM customer WHERE c_id = ?", (customer,))
        cursor.fetchall()
        cursor.execute(
            "SELECT o_id, o_date, o_total, ol_i_id, ol_qty, i_title"
            " FROM orders, order_line, item"
            " WHERE o_c_id = ? AND ol_o_id = o_id AND ol_i_id = i_id"
            " ORDER BY o_date DESC LIMIT 20",
            (customer,),
        )
        cursor.fetchall()
        return 2

    def admin_request(self) -> int:
        cursor = self._cursor()
        cursor.execute(
            "SELECT i_id, i_title, i_cost, i_image, i_thumbnail FROM item WHERE i_id = ?",
            (self._item_id(),),
        )
        cursor.fetchall()
        return 1

    def admin_confirm(self) -> int:
        connection = self.connection
        connection.begin()
        cursor = self._cursor()
        item = self._item_id()
        cursor.execute(
            "SELECT ol_i_id, COUNT(*) AS n FROM order_line"
            " WHERE ol_i_id <> ? GROUP BY ol_i_id ORDER BY n DESC LIMIT 5",
            (item,),
        )
        related = [row[0] for row in cursor.fetchall()]
        while len(related) < 5:
            related.append(self._item_id())
        cursor.execute(
            "UPDATE item SET i_cost = ?, i_image = ?, i_thumbnail = ?, i_pub_date = CURRENT_DATE(),"
            " i_related1 = ?, i_related2 = ?, i_related3 = ?, i_related4 = ?, i_related5 = ?"
            " WHERE i_id = ?",
            (
                round(self.random.uniform(5, 90), 2),
                f"img/image_{item}.gif",
                f"img/thumb_{item}.gif",
                related[0], related[1], related[2], related[3], related[4],
                item,
            ),
        )
        connection.commit()
        return 2


_SUBJECT_SAMPLE = (
    "ARTS", "COMPUTERS", "COOKING", "HISTORY", "LITERATURE", "MYSTERY",
    "ROMANCE", "SCIENCE-FICTION", "SPORTS", "TRAVEL",
)
